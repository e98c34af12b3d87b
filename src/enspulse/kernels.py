"""Numerical core: one SU(2) action under the propagation pass and the recursions.

All propagators are exact per step (closed-form axis/angle exponentials), so
the only error anywhere is floating-point roundoff.  Every product of steps
applies :func:`su2_apply`, the element ``[[a, -conj(b)], [b, conj(a)]]``
acting on a pair: in :func:`spinor_propagate`, which builds the step elements
of a tile of steps and grid points at once, composes them pairwise and
applies the tile's product to the running state, and over polynomial
coefficients, in place, in :func:`slr_forward` and :func:`slr_peel`; every
hard-pulse rf rotation over arrays is :func:`hard_step`.  A single step, such
as the one :func:`slr_peel` removes per degree, takes :func:`step_pair`, the
same pair from ``math`` in Python scalars, without numpy's per-call cost.
Bloch vectors and SO(3) rotations are the adjoint image (:func:`adjoint`) of
a spinor pass from (1, 0), a start the pass takes as two scalars and writes
into the state it allocates anyway.  A Bloch pass applies the image's rows
to its vectors one chunk of ``_CHUNK`` points at a time, so its output stage
builds neither the (npoints, 3, 3) table nor any per-point temporary.

Written pulses are mostly runs of one block repeated many times: a composite
repeats each bracket word's block once per subdivision, and a multi-block SLR
design repeats its block.  The pass splits the samples into maximal runs of a
bitwise-repeated block (:func:`_runs`), found from the samples alone, builds
each run's block element once over all points and raises it to the run's
count by squaring (:func:`_power`), so an m-fold run costs one block and about
2 log2(m) products instead of m blocks.  A run is taken only where it spares
the tile loop enough work; the rest goes through the tile loop as literal
stretches.  Equal samples give equal step elements in both models and under
any theta, eps or omega, so the runs change roundoff only, and a pulse without
a repeated sample (or without a run worth taking) is bit for bit what the tile
loop alone gives.

A hard-pulse pass at one rf scale and no rf phase has a second route: its
propagator at offset omega is the pulse's own spinor-polynomial pair, the one
:func:`slr_forward` builds from the steps' rf rotations, evaluated at ``z =
e^(i omega dt)`` behind the half-train delay (:func:`_polynomial_pass`).
:func:`spinor_propagate` is the one place that plans a pass: it takes the
route for grids of at least ``_POINTS_PER_STEP`` points per step, where one
O(n^2) recursion and Horner's rule over the points cost less than the tile
loop's n step elements per point, and the runs and the tile loop otherwise.
The route changes roundoff only (it is the more accurate of the two); every
spinor, unitary and Bloch pass reaches it through :func:`spinor_propagate`.

Every angle, of a step, an rf rotation, a free precession or an rf phase,
goes through :func:`_half_angle`: one tangent ``t = tan(h/2)`` gives cos h
and sin(h)/h.  numpy's ``tan`` is vectorized where its ``sin`` and ``cos``
are scalar loops, so a step element costs one fast transcendental instead
of two slow ones.

The pass builds each part of a step element over the values it depends on,
and writes its real and imaginary parts in place:

* per point, once per pass: ``-hz = -omega*dt/2`` and ``hz**2`` (the
  exact element takes ``-hx`` and ``-hz``, so the pass also negates u
  once), the hard-pulse free precession and the rf phase's factor
  ``e^(-i theta)``;
* per batch of steps and distinct eps of a chunk of points: the hard-pulse
  rf rotations, about ``_TILE`` of them in one :func:`hard_step` call,
  sliced per tile and gathered to the points unless one eps covers the
  chunk;
* per step and point: the exact element, times the rf phase's factor.

The rf phase turns the controls, so it leaves ``|h|`` unchanged and only
multiplies each element's ``b`` by ``e^(-i theta)``.

The tile loop (:func:`_tile_part`) allocates nothing per step: each step's
element and each state update go into a workspace of float and complex
buffers through ufunc ``out=`` arguments, in the same operations and order
as fresh arrays would take them, so the results are bitwise those of the
allocating loop.  The one exception numpy makes is kept out: it can round a
complex product written over one of its factors differently, so no complex
product is written in place that was not before.  The
calling thread allocates every workspace.  A wide pass, of at least
``2 * _SPLIT`` points on a process that may run on more than one CPU,
splits its points into contiguous parts, one per CPU up to one per
``_SPLIT`` points, each cut into chunks of ``_SPLIT_CHUNK`` points
(:func:`_parts`); the calling thread runs the first and a
worker thread each other one, and every worker has ended when the pass
returns or raises, with a worker's exception raised again on the calling
thread.  Part and chunk edges fall on multiples of ``_CHUNK``, so every
point is tiled, and rounded, as in an unsplit pass.  Workers enter neither
:func:`spinor_propagate` nor :func:`bloch_propagate`, so a tracer that wraps
those two names sees each pass on the calling thread alone.

Conventions
-----------
Single-spin plant, piecewise-constant controls ``(u_k, v_k)`` held for ``dt``:

* SU(2) generator per step: ``-(i/2) * (omega*sz + eps*u*sx + eps*v*sy)``.
* SO(3) generator per step: ``omega*Oz + eps*u*Oy + eps*v*Ox`` where
  ``Ox, Oy, Oz`` are the rotation generators with ``Oz @ ex = ey``.
* rf phase dispersion ``theta`` advances the polar angle of the control
  field vector, i.e. ``u' = u*cos(t) + v*sin(t)``, ``v' = -u*sin(t) + v*cos(t)``.
* ``hard_pulse=True`` splits each step into the free z-precession over ``dt``
  followed by the rf rotation with flip ``eps*sqrt(u^2+v^2)*dt``.

The SO(3) step with controls ``(u, v)`` and phase ``theta`` is the adjoint
of the SU(2) step with controls ``(v, u)`` and phase ``-theta``, in both
models; :func:`rotation_propagate` is the one place that exchange is made.
"""

from __future__ import annotations

import cmath
import math
import os
import threading

import numpy as np

__all__ = [
    "su2_apply",
    "hard_step",
    "step_pair",
    "rf_vector",
    "spinor_propagate",
    "rotation_propagate",
    "bloch_propagate",
    "adjoint",
    "slr_forward",
    "slr_peel",
    "slr_inverse",
]


def su2_apply(a, b, x, y, out=None):
    """Apply the SU(2) element ``[[a, -conj(b)], [b, conj(a)]]`` to the pair (x, y).

    Every product of steps in this package, over grid points or over
    polynomial coefficients, is made of this one update.  Applied to the
    first column ``(x, y)`` of another element, it gives the first column of
    their product, so it composes elements as well.  ``out``, three complex
    arrays of the result's shape, takes the pair in its first two and the
    call's scratch in the third; without it the pair is fresh.
    """
    if out is None:
        return a * x - np.conj(b) * y, b * x + np.conj(a) * y
    p, q, t = out
    # the same operations into the buffers, and no complex product written over
    # one of its factors: numpy rounds a one-element product in place
    # differently from the same product written elsewhere
    np.multiply(a, x, out=p)
    p -= np.multiply(np.conjugate(b, out=q), y, out=t)
    np.multiply(np.conjugate(a, out=q), y, out=t)
    np.multiply(b, x, out=q)
    q += t
    return p, q


def _half_angle(h, out=None):
    """``(cos h, sin(h)/h)`` of ``h >= 0`` from the one tangent ``t = tan(h/2)``:
    cos h = (1 - t^2)/(1 + t^2) and sin h = 2t/(1 + t^2).

    ``out``, four float arrays of h's shape, takes cos h, sin(h)/h and the
    call's scratch, and h, then a float array, is overwritten; without it
    every value is fresh and h is left as it is.  cos h is written once, so
    its array may be a strided view, such as the real part of a complex one.
    """
    # h + 1e-300 is h for every h above 1e-284; at h = 0 it makes t/h exactly
    # 1/2, so sin(h)/h keeps its limit 1 there
    c, t, k, x = (None,) * 4 if out is None else out
    h = np.add(h, 1e-300, out=None if out is None else h)
    t = np.tan(np.multiply(h, 0.5, out=t), out=t)
    x = np.multiply(t, t, out=x)
    k = np.divide(2.0, np.add(x, 1.0, out=k), out=k)  # 1 + cos h
    x *= k  # 1 - cos h
    t *= k  # sin h
    t /= h
    return np.subtract(1.0, x, out=c), t


def _transverse(sinc, nhx, hy, out=None):
    """``sinc * (hy - i hx)`` from ``nhx = -hx``, written into its real and
    imaginary parts: into ``out``, a complex array of sinc's shape, or fresh."""
    b = np.empty(np.shape(sinc), dtype=np.complex128) if out is None else out
    np.multiply(sinc, hy, out=b.real)
    np.multiply(sinc, nhx, out=b.imag)
    return b


def hard_step(hx, hy):
    """Cayley-Klein pair of the rf rotation ``exp(-i (hx sx + hy sy))``.

    Its flip is ``2 |h|`` and its axis lies at the rf phase ``angle(hx + i hy)``:
    the pair is ``(cos|h|, -i e^(i phase) sin|h|)``.
    """
    c, sinc = _half_angle(np.sqrt(hx * hx + hy * hy))
    return c, _transverse(sinc, np.negative(hx), hy)


def step_pair(half_flip, phase):
    """:func:`hard_step` of one rf rotation by ``2 * half_flip`` about the axis
    at ``phase``, in Python scalars: ``(cos h, -i e^(i phase) sin h)``."""
    return math.cos(half_flip), -1j * cmath.rect(math.sin(half_flip), phase)


def rf_vector(half_flip, phase):
    """``(hx, hy)`` of the rf rotation by ``2 * half_flip`` about the axis at
    ``phase``: ``half_flip * (cos(phase), sin(phase))``."""
    c, sinc = _half_angle(np.abs(phase))
    return half_flip * c, half_flip * (sinc * phase)


def _exact_pair(nhx, hy, nhz, hz2, out):
    """Cayley-Klein pair of one step's rotation ``exp(-i (hx sx + hy sy + hz sz))``,
    from ``nhx = -hx``, ``hy``, ``nhz = -hz`` and ``hz2 = hz**2``.

    The values are arrays.  ``out`` is ``((a, b), (r, f, c, s))``: complex
    arrays that take the pair and float arrays for the call's scratch, all of
    the pair's shape.  cos|h| goes straight into ``a.real``.
    """
    (a, b), (r, f, c, s) = out
    np.multiply(nhx, nhx, out=r)
    np.multiply(hy, hy, out=f)
    r += f
    r += hz2
    _half_angle(np.sqrt(r, out=r), out=(a.real, s, f, c))
    _transverse(s, nhx, hy, out=b)
    np.multiply(s, nhz, out=a.imag)
    return a, b


def _turn(theta):
    """``e^(-i theta)`` per point: seen at rf phase ``theta``, a step's controls
    turn ``hx + i hy`` into ``(hx + i hy) e^(-i theta)``, so ``|h|`` and ``a``
    stay and ``b`` takes this factor."""
    ct, st = rf_vector(1.0, theta)
    turn = np.empty(np.shape(theta), dtype=np.complex128)
    turn.real = ct
    turn.imag = -st
    return turn


def _distinct(values):
    """``(distinct, index)``: the bitwise-distinct ``values`` and each value's
    index into them, or ``(values[:1], None)`` for one value, which broadcasts.

    Values are told apart by their bits (``-0.0`` is not ``0.0``), so what is
    built over the distinct values is bitwise what each point would build.
    """
    keys, index = np.unique(values.view(np.int64), return_inverse=True)
    if len(keys) == 1:
        return values[:1], None
    return keys.view(np.float64), index


def _product(a, b):
    """Time-ordered product ``E[n-1] ... E[0]`` of the elements ``(a[k], b[k])``,
    composed pairwise along axis 0 with :func:`su2_apply`."""
    while len(a) > 1:
        na, nb = su2_apply(a[1::2], b[1::2], a[:-1:2], b[:-1:2])
        if len(a) % 2:
            na[-1], nb[-1] = su2_apply(a[-1], b[-1], na[-1], nb[-1])
        a, b = na, nb
    return a[0], b[0]


# Unsplit passes take points in chunks of _CHUNK and steps in tiles of _TILE
# elements: a chunk of 4096 points is one step a tile, and a narrower chunk
# takes _TILE // chunk steps a tile, so that a narrow grid pays numpy's
# per-call cost once per several steps.  Unsplit passes keep 4096-point chunks
# so that their workspace stays small (about 0.5 MB) and every pass below the
# split is cut as it always was.  A pass splits from 2 * _SPLIT points on, into
# parts of at least _SPLIT points, run on as many threads, and numpy hands the
# GIL over at every call: at 4096-point calls, about 3 us each, two threads
# queue on the GIL, while longer calls overlap, so a part takes chunks of
# _SPLIT_CHUNK points.  128 steps x 65 536 points on a 2-vCPU host, medians of
# 15: one thread 181 ms, two threads at 4096-point calls 313 ms, at 16 384-point
# calls 143 ms; on a later, slower run, one thread 217-270 ms, two threads at
# 16 384-point calls 167 ms and at 32 768-point calls 155-156 ms.
_CHUNK = 4096
_TILE = 4096
_SPLIT = 16384
_SPLIT_CHUNK = 32768


# A run of a repeated block replaces the tile loop over its copies by one block
# and about 2 log2(count) products over all points, plus a pass's set-up; it is
# taken only where it spares the tile loop two tiles' worth of step elements,
# and at least _WINDOW steps.  Sparing one tile's worth was about even: at 21
# points, runs sparing 196 steps took 0.44-0.67 ms against 0.41-0.61 ms.
#
# Runs are looked for at the distances where windows of _WINDOW steps recur: at
# most _PERIODS of them, the most frequent first, each one comparison over the
# pulse, so a pulse with no long repeat costs one sort.
_WINDOW = 16
_PERIODS = 8
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _periods(ub, vb, min_saved):
    """The distances at which windows of ``_WINDOW`` steps recur often enough
    to hold a run sparing ``min_saved`` steps, most frequent first, at most
    ``_PERIODS``.

    Windows are told apart by a hash of their bits, wrapping in uint64: a
    collision only proposes a period that :func:`_runs` then rejects.
    """
    # in place where it can, so a long pulse holds few (nsteps,) arrays at once
    key = ub * _MIX
    key += vb
    for s in (1, 2, 4, 8):  # windows of 2s steps from windows of s, up to _WINDOW
        head = key[:-s] * _MIX
        head += key[s:]
        key = head
    # sorted by hash, then position: the low bits of each key hold its step
    shift = np.uint64(max(1, (len(key) - 1).bit_length()))
    key <<= shift
    key |= np.arange(len(key), dtype=np.uint64)
    key.sort()
    step = (key & ((np.uint64(1) << shift) - np.uint64(1))).view(np.int64)
    key >>= shift
    recur = key[1:] == key[:-1]
    counts = np.bincount(step[1:][recur] - step[:-1][recur], minlength=1)
    periods = np.flatnonzero(counts > min_saved - _WINDOW)
    return periods[np.argsort(-counts[periods], kind="stable")][:_PERIODS]


def _runs(u, v, npoints):
    """Segments ``(start, period, count)`` that tile the steps in time order:
    ``count`` bitwise copies of the block ``start : start + period``.  A count
    of 1 is a literal stretch; a run spares ``(count - 1) * period`` steps."""
    n = len(u)
    min_saved = max(_WINDOW, -(-2 * _TILE // max(npoints, 1)))
    if n <= min_saved:
        return [(0, n, 1)]
    ub, vb = u.view(np.uint64), v.view(np.uint64)
    stretches = []
    for p in _periods(ub, vb, min_saved):
        same = (ub[p:] == ub[:-p]) & (vb[p:] == vb[:-p])
        edges = np.flatnonzero(np.diff(same, prepend=False, append=False)).reshape(-1, 2)
        # step k equals step k + p for k in [a, b): copies of one block cover [a, b + p)
        for a, b in edges[edges[:, 1] - edges[:, 0] >= min_saved].tolist():
            stretches.append(((b - a) // p * p, int(p), a, b + p))
    free = np.ones(n, dtype=bool)
    runs = []
    # the runs sparing most first, each cut to its longest part no run took
    for _, p, lo, hi in sorted(stretches, key=lambda s: (-s[0], s[1])):
        edges = np.flatnonzero(np.diff(free[lo:hi], prepend=False, append=False)).reshape(-1, 2)
        if len(edges) == 0:
            continue
        start, end = (lo + edges[np.argmax(edges[:, 1] - edges[:, 0])]).tolist()
        count = (end - start) // p
        if (count - 1) * p >= min_saved:
            runs.append((start, p, count))
            free[start : start + count * p] = False
    segments, at = [], 0
    for start, p, count in sorted(runs):
        if start > at:
            segments.append((at, start - at, 1))
        segments.append((start, p, count))
        at = start + p * count
    if at < n:
        segments.append((at, n - at, 1))
    return segments


def _power(a, b, count, x, y):
    """Apply the element ``(a, b)`` raised to ``count`` to the pair ``(x, y)``,
    by binary powering: about log2(count) squarings with :func:`su2_apply`."""
    while True:
        if count & 1:
            x, y = su2_apply(a, b, x, y)
        count >>= 1
        if not count:
            return x, y
        a, b = su2_apply(a, b, a, b)


# The polynomial route costs one O(n^2) recursion plus Horner's rule, one
# complex product and sum per step and point; the tile loop builds an element
# per step and point.  Near one point per step the two are within noise of each
# other; from eight on the route was faster at every size tried.  Medians on a
# 2-core host, route against tile loop: n = 64 at 512 points 0.69 vs 0.87 ms,
# n = 256 at 2048 points 5.1 vs 8.9 ms, n = 1024 at 8192 points 35 vs 149 ms.
_POINTS_PER_STEP = 8


def spinor_propagate(u, v, dt, omega, eps, theta, alpha0, beta0, hard_pulse=False):
    """Propagate Cayley-Klein pairs through all steps at every grid point.

    A hard-pulse pass at one rf scale and no rf phase is, at every offset,
    the polynomial pair of :func:`slr_forward` evaluated on the unit circle
    (:func:`_polynomial_pass`).  That route is taken when ``eps`` holds one
    bitwise-distinct value, ``theta`` is None and the grid has at least
    ``_POINTS_PER_STEP`` points per step.  Otherwise the steps split into
    runs of a bitwise-repeated block and literal stretches (:func:`_runs`).
    A literal stretch goes through the tile loop (:func:`_tiled_pass`) from
    the running state; a run's block goes through it once from (1, 0), and
    the block's element, raised to the run's count by squaring
    (:func:`_power`), is applied to the running state.

    Parameters
    ----------
    u, v : (nsteps,) float arrays of rf amplitudes in rad/s.
    dt : step duration in seconds.
    omega, eps : (npoints,) arrays of offset (rad/s) and rf scale.
    theta : (npoints,) array of rf phase offsets (rad), or None.
    alpha0, beta0 : the initial spinor: (npoints,) complex arrays, or two
        scalars that start every point, such as the (1, 0) of a rotation.
        Scalars give bitwise the result of arrays holding them, on both
        routes, without two per-point arrays to build and copy.
    hard_pulse : split each step into z-precession then rf rotation.

    Returns
    -------
    (alpha, beta) : complex arrays after the full sequence.
    """
    omega = np.asarray(omega, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if hard_pulse and theta is None and 0 < len(u) * _POINTS_PER_STEP <= len(omega):
        bits = eps.view(np.int64)
        if (bits == bits[0]).all():
            return _polynomial_pass(u, v, dt, omega, eps[0], alpha0, beta0)
    alpha = np.empty(len(omega), dtype=np.complex128)
    beta = np.empty(len(omega), dtype=np.complex128)
    alpha[:], beta[:] = alpha0, beta0
    theta = None if theta is None else np.asarray(theta, dtype=np.float64)
    for start, period, count in _runs(u, v, len(omega)):
        block = slice(start, start + period)
        if count == 1:
            _tiled_pass(u[block], v[block], dt, omega, eps, theta, alpha, beta, hard_pulse)
        else:
            a = np.ones(len(omega), dtype=np.complex128)
            b = np.zeros(len(omega), dtype=np.complex128)
            _tiled_pass(u[block], v[block], dt, omega, eps, theta, a, b, hard_pulse)
            alpha, beta = _power(a, b, count, alpha, beta)
    return alpha, beta


def _tiled_pass(u, v, dt, omega, eps, theta, alpha, beta, hard_pulse):
    """Apply the steps ``(u, v)`` to the pairs ``(alpha, beta)``, in place.

    The points split into parts (:func:`_parts`), each taken in chunks, and
    steps go in blocks of ``_TILE // chunk`` steps, at least one.  Each tile's
    step pairs are built in one call, composed pairwise (:func:`_product`)
    and applied to the running state, so no (nsteps, npoints) table is ever
    built.  What depends on the point alone, the offset's half angle, the rf
    phase's turn and the hard-pulse free precession, is built here over all
    points, and each part's workspace is allocated here; the first part runs
    on this thread and the others on one worker thread each, all ended
    before this returns or raises.  Arrays as converted by
    :func:`spinor_propagate`, its one caller, so that a traced
    ``spinor_propagate`` counts each pass once, whichever route it takes.
    """
    hdt = 0.5 * dt
    hz = hdt * omega
    # b takes the rf phase's turn; a hard pulse's element is its rf rotation
    # times the free precession over the step, the exact step with the rf
    # off, whose a is e^(-i hz) and whose b is 0
    zb = None if theta is None else _turn(theta)
    za = nhz = hz2 = None
    if hard_pulse:
        za = _turn(hz)
        zb = za if zb is None else za * zb
    else:
        # the exact element takes -hx and -hz (_exact_pair): -u scales to -hx
        hz2 = hz * hz
        nhz = np.negative(hz, out=hz)
        u = np.negative(u)
    jobs = []
    for part in _parts(len(omega)):
        chunks, width, controls, most = [], 0, 0, 0
        for pts in part:
            m = pts.stop - pts.start
            block = max(1, _TILE // m)
            # a tile's controls; a hard pulse's rf rotation depends on the step
            # and eps alone, and is built for a batch of about _TILE steps x
            # distinct eps at once
            ep, index, batch = eps[pts], None, block
            if hard_pulse:
                ep, index = _distinct(ep)
                batch = block * max(1, _TILE // (block * len(ep)))
            chunks.append((pts, ep, index, batch))
            width, most = max(width, min(len(u), block) * m), max(most, m)
            controls = max(controls, min(len(u), batch) * len(ep))
        # the controls' two float buffers, a tile's float scratch (four rows
        # for the exact element, one for a hard pulse's gathered cosine) and
        # two complex ones, then three complex ones of a chunk's points; one
        # array each, so that at 4096 elements each stays below glibc's mmap
        # threshold and a pass takes them from the heap instead of faulting in
        # fresh pages, which cost a narrow pass more than its arithmetic
        scratch = (width,) if hard_pulse else (width,) * 4
        work = [np.empty(n) for n in (controls, controls, *scratch)], [
            np.empty(n, dtype=np.complex128) for n in (width, width, most, most, most)
        ]
        jobs.append((chunks, work))
    args = (u[:, None], v[:, None], hdt, nhz, hz2, za, zb, alpha, beta)
    if len(jobs) == 1:
        _tile_part(*args, *jobs[0])
        return
    errors = []

    def run(job):
        try:
            _tile_part(*args, *job)
        except BaseException as exc:  # raised again on this thread
            errors.append(exc)

    workers = []
    try:
        for job in jobs[1:]:
            workers.append(threading.Thread(target=run, args=(job,)))
            workers[-1].start()
        _tile_part(*args, *jobs[0])
    finally:
        for worker in workers:
            if worker.ident is not None:
                worker.join()
    if errors:
        raise errors[0]


def _cpus():
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _parts(npoints):
    """The chunks of a pass's points, slices in contiguous parts, one a thread.

    A pass of at least ``2 * _SPLIT`` points, on a process that may use more
    than one CPU, splits into ``min(cpus, npoints // _SPLIT)`` parts of about
    equal size, each cut into chunks of ``_SPLIT_CHUNK``; any other pass is
    one part cut into chunks of ``_CHUNK``.  Part and chunk edges fall on
    multiples of ``_CHUNK``, and the grid's last partial ``_CHUNK`` is a
    chunk of its own, as in an unsplit pass.
    """
    nparts = min(_cpus(), npoints // _SPLIT) if npoints >= 2 * _SPLIT else 1
    size = _SPLIT_CHUNK if nparts > 1 else _CHUNK
    tail = npoints - npoints % _CHUNK
    edges = [part * (tail // _CHUNK) // nparts * _CHUNK for part in range(nparts)] + [npoints]
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        cuts = [*range(lo, min(hi, tail), size), min(hi, tail), hi]
        parts.append([slice(a, b) for a, b in zip(cuts, cuts[1:]) if b > a])
    return parts


def _tile_part(u, v, hdt, nhz, hz2, za, zb, alpha, beta, chunks, work):
    """The tile loop over ``chunks``, ``(points, eps, index, batch)``: the eps
    and index as :func:`_distinct` gives them for a hard pulse (the points'
    own eps and None otherwise), and the steps a batch of controls spans.

    For the exact model ``u`` comes negated and ``nhz`` is ``-hz``, as
    :func:`_exact_pair` takes them; a hard pulse has neither nhz nor hz2.
    Each step's element and each state update is written into the buffers
    of ``work``, so the loop allocates nothing but the rf rotations of
    :func:`hard_step`, one batch of steps over the distinct eps a call, and
    the products of tiles of more than one step.  The state goes back and
    forth between ``(alpha, beta)`` and two buffers.
    """
    fw, cw = work
    for pts, ep, index, batch in chunks:
        m = pts.stop - pts.start
        block = max(1, _TILE // m)
        state = x, y = alpha[pts], beta[pts]
        t, nx, ny = (row[:m] for row in cw[2:])
        nhzp, hz2p, zap, zbp = (None if z is None else z[pts] for z in (nhz, hz2, za, zb))
        rows = n = 0
        for k in range(0, len(u), block):
            if min(block, len(u) - k) != rows:  # the first tile, and a shorter last one
                rows = min(block, len(u) - k)
                scratch = [row[: rows * m].reshape(rows, m) for row in fw[2:]]
                a, b = (row[: rows * m].reshape(rows, m) for row in cw[:2])
            j = k % batch
            if j == 0:
                if min(batch, len(u) - k) != n:  # the first batch, and a shorter last one
                    n = min(batch, len(u) - k)
                    hx, hy = (row[: n * len(ep)].reshape(n, len(ep)) for row in fw[:2])
                # eps * u before the scale by dt/2, so a grid's eps and a pulse
                # scaled by it give the same rotation
                np.multiply(ep, u[k : k + n], out=hx)
                hx *= hdt
                np.multiply(ep, v[k : k + n], out=hy)
                hy *= hdt
                if zap is not None:
                    rcs, rss = hard_step(hx, hy)
            if zap is None:
                _exact_pair(hx, hy, nhzp, hz2p, out=((a, b), scratch))
                if zbp is not None:
                    b *= zbp
            else:
                rc, rs = rcs[j : j + rows], rss[j : j + rows]
                if index is not None:
                    # gathered into a, which b is built from before a itself
                    rs = rs.take(index, axis=1, out=a, mode="clip")
                    rc = rc.take(index, axis=1, out=scratch[0], mode="clip")
                np.multiply(rs, zbp, out=b)
                np.multiply(rc, zap, out=a)
            su2_apply(*_product(a, b), x, y, out=(nx, ny, t))
            x, y, nx, ny = nx, ny, x, y
        if x is not state[0]:
            state[0][:], state[1][:] = x, y


# The Bloch paths reach the spinor pass through this name, so that wrapping the
# public ``spinor_propagate`` (as the benchmark's tracer does) sees spinor
# passes only.
_spin_steps = spinor_propagate


def _polynomial_pass(u, v, dt, omega, eps, alpha0, beta0):
    """Hard-pulse pass at the one rf scale ``eps``, through the pulse's pair.

    With ``z = e^(i omega dt)``, the n-step propagator's first column is
    ``e^(-i n omega dt/2) (P(z), Q(z))``, where ``(P, Q)`` is the pair of
    :func:`slr_forward` over the steps' rf rotations, all built in one
    :func:`hard_step` call (``eps * u`` before the scale by dt/2, as in the
    tile loop).  The half-train delay is folded into the evaluation: centred
    at ``h = n // 2``, the coefficients ``k >= h`` are a polynomial in ``z``
    and those below ``h`` one in ``conj(z)``, so the pair, stacked over both
    halves, takes Horner's rule in n/2 steps and no power above n/2.  An odd
    n leaves one half step, ``e^(-i omega dt/2)``.
    """
    hdt = 0.5 * dt
    p, q = slr_forward(*hard_step(eps * u * hdt, eps * v * hdt))
    n, h = len(p), len(p) // 2
    # powers z^j of the coefficients h + j, and conj(z)^j of h - j
    table = np.zeros((2, 2, h + 1), dtype=np.complex128)
    table[0, :, : n - h] = p[h:], q[h:]
    table[1, :, 1:] = p[:h][::-1], q[:h][::-1]
    c, s = rf_vector(1.0, dt * omega)
    turn = np.empty((2, 1, len(omega)), dtype=np.complex128)
    turn.real = c
    turn.imag[0], turn.imag[1] = s, -s
    y = np.repeat(table[:, :, -1:], len(omega), axis=2)
    for j in range(h - 1, -1, -1):
        y *= turn
        y += table[:, :, j : j + 1]
    a, b = y[0] + y[1]
    if n % 2:
        half = _turn(hdt * omega)
        a *= half
        b *= half
    return su2_apply(a, b, alpha0, beta0)


def _adjoint_rows(alpha, beta):
    """The rows of :func:`adjoint`, each a tuple of its three entries."""
    a = np.asarray(alpha, dtype=np.complex128)
    b = np.asarray(beta, dtype=np.complex128)
    aa, bb = a * a, b * b
    dif, tot = aa - bb, aa + bb
    acb, ab = np.conj(a) * b, a * b
    return (
        (dif.real, dif.imag, 2.0 * acb.real),
        (-tot.imag, tot.real, 2.0 * acb.imag),
        (-2.0 * ab.real, -2.0 * ab.imag, (a * np.conj(a) - b * np.conj(b)).real),
    )


def adjoint(alpha, beta):
    """SO(3) image ``R_ij = tr(s_i U s_j U^H) / 2`` of ``U = [[a, -b*], [b, a*]]``.

    Vectorized: ``alpha`` and ``beta`` of any common shape give rotations of
    that shape followed by ``(3, 3)``.
    """
    rows = _adjoint_rows(alpha, beta)
    r = np.empty(np.shape(rows[2][2]) + (3, 3))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            r[..., i, j] = entry
    return r


def _rotation_pass(u, v, dt, omega, eps, theta, hard_pulse):
    """The spinor pass from (1, 0) whose :func:`adjoint` is the Bloch plant's
    rotation: the controls exchanged and the rf phase negated."""
    return _spin_steps(
        v, u, dt, omega, eps, None if theta is None else -np.asarray(theta, dtype=np.float64),
        1.0, 0.0, hard_pulse,
    )


def rotation_propagate(u, v, dt, omega, eps, theta, hard_pulse=False):
    """Net SO(3) rotations (npoints, 3, 3) of the Bloch plant at every point.

    One spinor pass from (1, 0) with the controls exchanged and the rf phase
    negated, mapped through :func:`adjoint`.  Arguments as for
    :func:`spinor_propagate`.
    """
    return adjoint(*_rotation_pass(u, v, dt, omega, eps, theta, hard_pulse))


def bloch_propagate(u, v, dt, omega, eps, theta, xyz0, hard_pulse=False):
    """Propagate Bloch vectors (npoints, 3) through all steps of a pulse.

    ``R x0`` straight from the rotation's rows (:func:`_adjoint_rows`), one
    chunk of ``_CHUNK`` points at a time, so no (npoints, 3, 3) table and no
    per-point temporary is built; ``xyz0`` may be a broadcast view, such as
    one vector for every point.  Each row is summed as numpy's ``einsum``
    sums it, ``(R_i0 x + R_i2 z) + R_i1 y`` from +0, elementwise and so
    alike in any chunk, and the output is bitwise
    ``einsum("nij,nj->ni", R, x0)``.
    """
    xyz0 = np.asarray(xyz0, dtype=np.float64)
    alpha, beta = _rotation_pass(u, v, dt, omega, eps, theta, hard_pulse)
    out = np.empty((len(omega), 3))
    for start in range(0, len(omega), _CHUNK):
        pts = slice(start, start + _CHUNK)
        x, y, z = xyz0[pts].T
        for i, (r0, r1, r2) in enumerate(_adjoint_rows(alpha[pts], beta[pts])):
            np.add(r0 * x + r2 * z, r1 * y, out=out[pts, i])
    # einsum's +0 changes only a sum of -0s, to +0, so it may come last
    out += 0.0
    return out


def slr_forward(chalf, shalf):
    """Run the hard-pulse spinor-polynomial recursion.

    Parameters
    ----------
    chalf : (n,) real array, cos(phi_k/2) per step.
    shalf : (n,) complex array, -i*exp(i*theta_k)*sin(phi_k/2) per step.

    Returns
    -------
    (p, q) : complex (n,) coefficient arrays of the order-(n-1) polynomials
        in the inverse frequency variable.
    """
    n = len(chalf)
    p = np.zeros(n, dtype=np.complex128)
    q = np.zeros(n, dtype=np.complex128)
    sx_buf = np.empty(n, dtype=np.complex128)
    csy_buf = np.empty(n, dtype=np.complex128)
    p[0] = 1.0
    # m steps leave m live coefficients: P's at p[:m], Q's at q[n - m:].  The
    # next window, q[n - m - 1:], is Q shifted up a degree behind a zero no step
    # has written, so each step updates its window in place, as su2_apply would.
    steps = zip(chalf.tolist(), shalf.tolist(), np.conj(shalf).tolist())
    for m, (c, s, cs) in enumerate(steps, 1):
        x, y, sx, csy = p[:m], q[n - m :], sx_buf[:m], csy_buf[:m]
        np.multiply(s, x, out=sx)
        np.multiply(cs, y, out=csy)
        x *= c
        x -= csy
        y *= c
        y += sx
    return p, q


def slr_peel(pw, qw, length):
    """Remove the last step of a length-``length`` pair (pw, qw), in place.

    The step rotation is read off the constant coefficients (their ratio is
    S/C) or, equivalently, off the leading coefficients (ratio -conj(S)/C);
    the two conditions hold simultaneously, so each reduction uses whichever
    pair is numerically healthier.  Long trains of large flips shrink the
    constant coefficients exponentially, and the one-sided rule loses them
    to cancellation noise.

    Returns ``(phi, theta, lead, low)``: the step's flip in [0, pi) and rf
    phase, P's dropped leading coefficient (at ``length`` 1, the reduced
    constant P, nominally 1) and the modulus of Q's dropped constant (nominally
    0).  Degenerate extraction returns ``phi = nan`` and leaves the pair as is.
    """
    # w = i S / C, whose modulus is tan(phi/2) and whose angle is theta
    p0, q0 = complex(pw[0]), complex(qw[0])
    if length >= 2 and abs(qw[length - 1]) > abs(p0):
        w = -1j * (complex(pw[length - 1]) / complex(qw[length - 1])).conjugate()
    elif abs(p0) >= 1e-14:
        w = 1j * (q0 / p0)
    elif abs(q0) > 1e-14:
        return np.nan, 0.0, 0.0, 0.0
    else:
        w = 0j
    half = math.atan(abs(w))
    th = cmath.phase(w) if w else 0.0
    c, s = step_pair(half, th)
    x, y = pw[:length], qw[:length]
    # su2_apply(c, -s, x, y) in place and bitwise: only the real c multiplies in place
    bx, cby = -s * x, (-s).conjugate() * y
    x *= c
    x -= cby
    y *= c
    y += bx
    low = abs(y[0])
    qw[: length - 1] = qw[1:length]  # the reduced pair; what lies beyond is unused
    return 2.0 * half, th, x[length - 1], low


def slr_inverse(p, q):
    """Invert the spinor-polynomial recursion, one :func:`slr_peel` per degree.

    Returns
    -------
    phi : (n,) flip angles in [0, pi].
    theta : (n,) rf phases.
    res_lead : max dropped leading coefficient of the reduced first polynomial.
    res_low : max dropped low-order coefficient of the reduced second polynomial.
    final_dev : |P_0 - 1| after full reduction (0 for realizable inputs).

    Degenerate extraction is signalled by phi[k] = nan for the offending
    step; the caller turns this into an error.
    """
    n = len(p)
    pw = np.array(p, dtype=np.complex128, copy=True)
    qw = np.array(q, dtype=np.complex128, copy=True)
    phi = np.zeros(n)
    theta = np.zeros(n)
    res_lead = 0.0
    res_low = 0.0
    for length in range(n, 0, -1):
        phi[length - 1], theta[length - 1], lead, low = slr_peel(pw, qw, length)
        if np.isnan(phi[length - 1]):
            return phi, theta, res_lead, res_low, np.inf
        res_low = max(res_low, low)
        if length > 1:
            res_lead = max(res_lead, abs(lead))
    # the last reduction leaves the constant pair, nominally (1, 0)
    return phi, theta, res_lead, res_low, abs(lead - 1.0)
