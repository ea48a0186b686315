"""The attention core before tiles reused a scratch array and the shift was
decided from the row sums: the oracle for `autodiff._attend` and
`autodiff._attend_grads`.

`attend` and `attend_grads` are frozen copies of that forward and backward,
in the core's current formula: every tile reads its slot's keys (and the
backward's v) as columns of one contiguous (h, dh, N) copy made per call,
the keys' copy scaled by log2(e), so the logits are base 2 and take `exp2`,
the row-max band is compared in base-2 units, and the row sums are always
`_sum_last` of the exp'd tile. Every slot, however short, skips the shift
when its tile's row maxima lie in the band. They read the tile budget from
`autodiff` at call time, so a test that shrinks the tiles shrinks them here
too. The attention core promises bitwise equality with these functions for
every input, on both sides of the band and on both sides of a tile boundary.
"""

import numpy as np

from sharedformer import autodiff as ad

_BAND2 = 20.0 * ad.LOG2E  # the natural band [-20, 20] in base-2 units


def _heads(a, at, t):
    return a[at:at + t].transpose(1, 0, 2)


def attend(q, k, v, bias, keep, scale, lengths, graph):
    n, h, dh = q.shape
    out = np.empty(v.shape, dtype=q.dtype)
    saved = []
    kt_all = np.empty((h, dh, n), k.dtype)
    np.multiply(k.transpose(1, 2, 0), ad.LOG2E, out=kt_all)
    tile_cells = max(1, ad._TILE_BYTES // (h * out.itemsize))
    at = 0
    for b, tb in enumerate(lengths):
        qb, ob, vb = (_heads(a, at, tb) for a in (q, out, v))
        kt = kt_all[:, :, at:at + tb]
        at += tb
        rows = max(1, tile_cells // tb)
        e_all = np.empty((h, tb, tb), out.dtype) if graph and rows < tb else None
        s_all = np.empty((h, tb, 1), out.dtype) if graph else None
        for r0 in range(0, tb, rows):
            r1 = min(r0 + rows, tb)
            qt = qb[:, r0:r1]
            e = qt @ kt if e_all is None else np.matmul(qt, kt, out=e_all[:, r0:r1])
            if bias is not None:
                e += bias[r0:r1, :tb]
            mx = np.fmax.reduce(e, axis=-1, keepdims=True)
            if not np.abs(mx).max() <= _BAND2:
                e -= mx
            np.exp2(e, out=e)
            s = ad._sum_last(e)
            o = ob[:, r0:r1]
            if keep is None:
                np.divide(e @ vb, s, out=o)
            else:
                kb = keep[b][:, r0:r1]
                np.divide((e * kb if graph else np.multiply(e, kb, out=e)) @ vb, s, out=o)
                o *= scale
            if graph:
                s_all[:, r0:r1] = s
        if graph:
            saved.append((e if e_all is None else e_all, s_all))
    return out, saved


def attend_grads(g, q, k, v, out, saved, keep, scale, lengths, need):
    gq, gk, gv = (np.empty(a.shape, a.dtype) if wanted else None
                  for wanted, a in zip(need, (q, k, v)))
    vt_all = np.ascontiguousarray(v.transpose(1, 2, 0))
    at = 0
    for b, (tb, (e, s)) in enumerate(zip(lengths, saved)):
        do = _heads(g, at, tb)
        r = scale / s
        if gv is not None:
            w = e if keep is None else e * keep[b]
            _heads(gv, at, tb)[...] = np.swapaxes(w, -1, -2) @ (do * r)
        if gq is not None or gk is not None:
            ds = do @ vt_all[:, :, at:at + tb]
            if keep is not None:
                ds *= keep[b]
            ds -= ad._sum_last(do * _heads(out, at, tb), 1.0 / scale)
            ds *= e
            if gq is not None:
                np.multiply(ds @ _heads(k, at, tb), r, out=_heads(gq, at, tb))
            if gk is not None:
                _heads(gk, at, tb)[...] = np.swapaxes(ds, -1, -2) @ (_heads(q, at, tb) * r)
        at += tb
    return [gq, gk, gv]
