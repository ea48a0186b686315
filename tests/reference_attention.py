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

A graph keeps, per slot, (s, tiles): its row sums s and per tile (r0, r1,
the row-max shift or None), from which `attend_grads` replays the tile's
exp'd logits and adds the tile's shares of dV and dK, tile by tile in row
order.

`attend(..., whole=True)` keeps every slot's whole exp'd block e and its row
sums, (e, s), instead, and `attend_grads_whole` is the backward that reads
it: the core before the backward replayed its tiles, whose gradients agree
with the replayed ones bit for bit on a one-tile slot and to a regrouping of
the sums over query rows on a longer one.
"""

import numpy as np

from sharedformer import autodiff as ad

_BAND2 = 20.0 * ad.LOG2E  # the natural band [-20, 20] in base-2 units


def _heads(a, at, t):
    return a[at:at + t].transpose(1, 0, 2)


def _key_columns(k):
    n, h, dh = k.shape
    kt_all = np.empty((h, dh, n), k.dtype)
    np.multiply(k.transpose(1, 2, 0), ad.LOG2E, out=kt_all)
    return kt_all


def attend(q, k, v, bias, keep, scale, lengths, graph, whole=False):
    n, h, dh = q.shape
    out = np.empty(v.shape, dtype=q.dtype)
    saved = []
    kt_all = _key_columns(k)
    tile_cells = max(1, ad._TILE_BYTES // (h * out.itemsize))
    at = 0
    for b, tb in enumerate(lengths):
        qb, ob, vb = (_heads(a, at, tb) for a in (q, out, v))
        kt = kt_all[:, :, at:at + tb]
        at += tb
        rows = max(1, tile_cells // tb)
        e_all = np.empty((h, tb, tb), out.dtype) if graph and whole else None
        s_all = np.empty((h, tb, 1), out.dtype) if graph else None
        tiles = []
        for r0 in range(0, tb, rows):
            r1 = min(r0 + rows, tb)
            qt = qb[:, r0:r1]
            e = qt @ kt if e_all is None else np.matmul(qt, kt, out=e_all[:, r0:r1])
            if bias is not None:
                e += bias[r0:r1, :tb]
            mx = np.fmax.reduce(e, axis=-1, keepdims=True)
            shift = None
            if not np.abs(mx).max() <= _BAND2:
                e -= mx
                shift = mx
            np.exp2(e, out=e)
            s = ad._sum_last(e)
            o = ob[:, r0:r1]
            if keep is None:
                np.divide(e @ vb, s, out=o)
            else:
                kb = keep[b][:, r0:r1]
                np.divide((e * kb if whole else np.multiply(e, kb, out=e)) @ vb, s, out=o)
                o *= scale
            if graph:
                s_all[:, r0:r1] = s
                tiles.append((r0, r1, shift))
        if graph:
            saved.append((e_all, s_all) if whole else (s_all, tiles))
    return out, saved


def attend_grads(g, q, k, v, out, bias, saved, keep, scale, lengths, need):
    gq, gk, gv = (np.empty(a.shape, a.dtype) if wanted else None
                  for wanted, a in zip(need, (q, k, v)))
    vt_all = np.ascontiguousarray(v.transpose(1, 2, 0))
    kt_all = _key_columns(k)
    at = 0
    for b, (tb, (s, tiles)) in enumerate(zip(lengths, saved)):
        do = _heads(g, at, tb)
        r = scale / s
        dsum = ad._sum_last(do * _heads(out, at, tb), 1.0 / scale)
        vt = vt_all[:, :, at:at + tb]
        for r0, r1, shift in tiles:
            e = _heads(q, at, tb)[:, r0:r1] @ kt_all[:, :, at:at + tb]
            if bias is not None:
                e += bias[r0:r1, :tb]
            if shift is not None:
                e -= shift
            np.exp2(e, out=e)
            dot, rt = do[:, r0:r1], r[:, r0:r1]
            kp = None if keep is None else keep[b][:, r0:r1]
            if gv is not None:
                w = e if kp is None else e * kp
                part = np.swapaxes(w, -1, -2) @ (dot * rt)
                if r0:
                    _heads(gv, at, tb)[...] += part
                else:
                    _heads(gv, at, tb)[...] = part
            if gq is not None or gk is not None:
                ds = dot @ vt
                if kp is not None:
                    ds *= kp
                ds -= dsum[:, r0:r1]
                ds *= e
                if gq is not None:
                    np.multiply(ds @ _heads(k, at, tb), rt, out=_heads(gq, at + r0, r1 - r0))
                if gk is not None:
                    part = np.swapaxes(ds, -1, -2) @ (_heads(q, at + r0, r1 - r0) * rt)
                    if r0:
                        _heads(gk, at, tb)[...] += part
                    else:
                        _heads(gk, at, tb)[...] = part
        at += tb
    return [gq, gk, gv]


def attend_grads_whole(g, q, k, v, out, saved, keep, scale, lengths, need):
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
