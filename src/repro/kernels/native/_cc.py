"""System-C-compiler backend of the native kernel tier.

The lumos ``acc.pyx`` idiom — an optional compiled module behind a pure-
Python behaviour contract — without requiring Cython at all: the hot
loops are a single self-contained C translation unit embedded below,
compiled on first use with whatever ``cc``/``gcc``/``clang`` is on PATH
(``-O3 -shared -fPIC``) and loaded through :mod:`ctypes`.  The shared
object is cached on disk keyed by a hash of the source *and* the
compiler identity, so a source edit or toolchain swap rebuilds and an
unchanged tree pays the compile exactly once per machine.

Three entry points, mirroring the Python/NumPy reference semantics
bit for bit (the probe in :mod:`repro.kernels.native` golden-checks the
first two against the vectorized kernels before the backend is ever
selected):

* ``bc_scatter_or`` — Stage 0 scatter-OR with the same validation order
  as :func:`repro.kernels.bitmatrix.scatter_or_colors`: the color
  overflow check runs over the whole batch *before* any state word is
  written (and before any row-bounds error), and NumPy's negative-row
  wraparound is reproduced;
* ``bc_first_free`` — Stage 1 first-free-color via the paper's
  ``(~state) & (state + 1)`` bit trick and a hardware popcount, with the
  same all-words-saturated overflow contract;
* ``bc_replay_run`` — a whole batched accelerator run in one ascending
  pass over the CSR: each task is colored from its lower neighbours
  (the same first-free step), its per-task cycle inputs are derived from
  its row, and the scalar replay recurrence runs (dispatch floor,
  first-idle-PE selection, merge-buffer carry + write-commit
  invalidation via a binary min-heap, conflict deferral,
  physical-channel queueing).  The heap is keyed on finish time alone:
  the order among equal finish times is unobservable because the
  commit loop drains *every* entry with ``finish <= t`` and carry
  invalidation commutes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

__all__ = ["load"]

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define WORD_BITS 64LL
#define FULL_WORD 0xFFFFFFFFFFFFFFFFULL

typedef long long i64;
typedef unsigned long long u64;

/* Stage 0: OR one-hot colors into state rows.
 *
 * Returns the number of words ORed (live slots) on success;
 *   -1 = color overflow  (*detail = the offending color number);
 *   -2 = row out of range (*detail = the offending row index).
 * The whole batch is validated before any write, and the color check
 * outranks the row check — matching the vectorized kernel, which
 * raises its ValueError before np.bitwise_or.at touches (or bounds-
 * checks) anything.  Negative rows wrap like NumPy fancy indexing.
 */
i64 bc_scatter_or(const i64 *rows, const i64 *colors, i64 nnz,
                  u64 *out, i64 num_rows, i64 num_words, i64 *detail)
{
    i64 maxc = 0, words_ored = 0, bad_row = 0, has_bad_row = 0;
    for (i64 i = 0; i < nnz; i++) {
        i64 c = colors[i];
        if (c <= 0)
            continue;
        if (c > maxc)
            maxc = c;
        i64 r = rows[i];
        if ((r < -num_rows || r >= num_rows) && !has_bad_row) {
            has_bad_row = 1;
            bad_row = r;
        }
        words_ored++;
    }
    if (maxc > num_words * WORD_BITS) {
        *detail = maxc;
        return -1;
    }
    if (has_bad_row) {
        *detail = bad_row;
        return -2;
    }
    for (i64 i = 0; i < nnz; i++) {
        i64 c = colors[i];
        if (c <= 0)
            continue;
        i64 r = rows[i];
        if (r < 0)
            r += num_rows;
        i64 idx = c - 1;
        out[r * num_words + (idx >> 6)] |= 1ULL << (idx & 63);
    }
    return words_ored;
}

/* Stage 1: first free 1-based color per state row.
 *
 * Returns 0 on success, r+1 when row r has every word saturated (the
 * caller raises the tier's OverflowError).
 */
i64 bc_first_free(const u64 *states, i64 rows, i64 words, i64 *out)
{
    for (i64 r = 0; r < rows; r++) {
        const u64 *row = states + r * words;
        i64 w = 0;
        while (w < words && row[w] == FULL_WORD)
            w++;
        if (w == words)
            return r + 1;
        u64 x = row[w];
        u64 lz = (~x) & (x + 1ULL);
        out[r] = w * WORD_BITS + (i64)__builtin_popcountll(lz - 1ULL) + 1;
    }
    return 0;
}

/* Binary min-heap keyed on finish time (see module docstring on why the
 * Python engine's (finish, block) tie-break is unobservable). */
static void heap_push(i64 *hf, i64 *hb, i64 *size, i64 fin, i64 blk)
{
    i64 i = (*size)++;
    while (i > 0) {
        i64 par = (i - 1) >> 1;
        if (hf[par] <= fin)
            break;
        hf[i] = hf[par];
        hb[i] = hb[par];
        i = par;
    }
    hf[i] = fin;
    hb[i] = blk;
}

static i64 heap_pop(i64 *hf, i64 *hb, i64 *size)
{
    i64 blk = hb[0];
    i64 m = --(*size);
    i64 fin = hf[m], mb = hb[m];
    i64 i = 0;
    for (;;) {
        i64 l = 2 * i + 1;
        if (l >= m)
            break;
        if (l + 1 < m && hf[l + 1] < hf[l])
            l++;
        if (hf[l] >= fin)
            break;
        hf[i] = hf[l];
        hb[i] = hb[l];
        i = l;
    }
    hf[i] = fin;
    hb[i] = mb;
    return blk;
}

static int in_list(const i64 *a, i64 len, i64 x)
{
    for (i64 j = 0; j < len; j++)
        if (a[j] == x)
            return 1;
    return 0;
}

/* Edge blocks read for the first cnt entries of row v: plain CSR packs
 * epb entries per block; a compressed layout packs an hb[v]-bit header
 * and eb[v]-bit entries (kernels.prefix_block_counts). */
static i64 prefix_blocks(const i64 *hb, const i64 *eb, i64 v, i64 cnt,
                         i64 epb, i64 block_bits)
{
    if (cnt <= 0)
        return 0;
    return hb ? (hb[v] + (cnt - 1) * eb[v] + block_bits - 1) / block_bits
              : (cnt + epb - 1) / epb;
}

/* Run totals, in the order hw/batched.py unpacks them. */
enum { A_MAXFIN, A_COMP, A_DRAM, A_WC, A_STALL, A_QUEUE, A_CONFLICTS,
       A_COUNT_A, A_CONF_MI, A_CONF_MERGED, A_CONF_K, A_CONF_MISSES,
       A_CONF_LDV_BASE, A_CONF_LDV_READS, A_CONF_HDV_OCC, A_PRUNED,
       A_CACHE, A_LDV, A_MI, A_K, A_BLOCKS_NEEDED, A_BLOCKS_SAVED };

/* A whole batched-engine run in one ascending pass over the CSR; the
 * recurrence transliterates the Python loop in hw/batched.py.  Each
 * task v is colored from its lower neighbours (Algorithm 2), its
 * per-task inputs are derived from row v, and its schedule is replayed.
 * Writes colors, the run totals and one (first start, maxfin,
 * conflicts, stall) row per epoch_size tasks.  Stops at the first
 * vertex whose color exceeds max_colors.  Returns 0, or -1 when
 * allocation fails. */
i64 bc_replay_run(
    const i64 *offsets, const i64 *edges, const i64 *pe_bind,
    const i64 *hb, const i64 *eb, i64 n, i64 v_t, i64 p, i64 ns, i64 puv,
    i64 mgr, i64 bwc, i64 interval, i64 setup, i64 wc_ldv, i64 or_cyc,
    i64 hitx, i64 rc, i64 sc, i64 cpb, i64 epb, i64 block_bits,
    i64 fin_bwc, i64 max_colors, i64 epoch_size,
    i64 *colors, i64 *acc, i64 *epochs)
{
    i64 maxdeg = 0;
    for (i64 v = 0; v < n; v++)
        if (offsets[v + 1] - offsets[v] > maxdeg)
            maxdeg = offsets[v + 1] - offsets[v];
    i64 nheap = n - v_t > 0 ? n - v_t : 1;
    i64 words = maxdeg / WORD_BITS + 1;
    i64 *buf = calloc(3 * p + n + ns + 2 * nheap + maxdeg + words, sizeof(i64));
    if (!buf)
        return -1;
    i64 *pe_free = buf, *seen = buf + p, *carry = buf + 2 * p;
    i64 *finish_v = buf + 3 * p, *servers = finish_v + n;
    i64 *heap_fin = servers + ns, *heap_blk = heap_fin + nheap;
    i64 *dlist = heap_blk + nheap;
    u64 *mark = (u64 *)(dlist + maxdeg);
    for (i64 q = 0; q < p; q++) {
        seen[q] = 1;
        carry[q] = -1;
    }
    i64 floor_t = 0, maxfin = 0, heap_size = 0;

    for (i64 v = 0; v < n; v++) {
        const i64 *row = edges + offsets[v];
        i64 deg = offsets[v + 1] - offsets[v];

        /* dispatch: PE choice and start time */
        i64 pe = pe_bind[v];
        if (pe < 0)
            for (i64 q = pe = 0; q < p; q++)
                if (pe_free[q] < pe_free[pe])
                    pe = q;
        i64 t = pe_free[pe] > floor_t ? pe_free[pe] : floor_t;
        floor_t = t + interval;
        i64 *ep = epochs + 4 * (v / epoch_size); /* this task's epoch row */
        if (v % epoch_size == 0)
            ep[0] = t;

        /* commits due before this dispatch: merge-buffer invalidation
         * (the heap only fills under MGR) */
        while (heap_size > 0 && heap_fin[0] <= t) {
            i64 wb = heap_pop(heap_fin, heap_blk, &heap_size);
            for (i64 q = 0; q < p; q++)
                if (carry[q] == wb)
                    carry[q] = -1;
        }

        /* One walk of row v: OR the lower neighbours' colors, defer on
         * those in flight, and derive PUV counts, the HDC split and the
         * MGR-collapsed LDV block sequence (k runs, s_full streams). */
        i64 scan = maxfin > t, dep = 0, nd = 0, d_hdv_occ = 0, hiw = 0;
        i64 n_le = 0, srt = 1, hdv = 0, ldv = 0;
        i64 k = 0, s_full = 0, stream1 = 0, c0 = -5, clast = -1;
        for (i64 i = 0; i < deg; i++) {
            i64 w = row[i];
            if (i > 0 && w < row[i - 1])
                srt = 0;
            if (w < v) {
                i64 c = colors[w] - 1;
                mark[c / WORD_BITS] |= 1ULL << (c % WORD_BITS);
                if (c / WORD_BITS > hiw)
                    hiw = c / WORD_BITS;
                i64 fw = finish_v[w];
                if (scan && fw > t) {
                    if (w < v_t)
                        d_hdv_occ++;
                    if (!in_list(dlist, nd, w)) {
                        dlist[nd++] = w;
                        if (fw > dep)
                            dep = fw;
                    }
                }
            }
            if (puv && w > v)
                continue;
            n_le++;
            if (w < v_t) {
                hdv++;
                continue;
            }
            ldv++;
            i64 b = w / cpb;
            if (mgr && k > 0 && b == clast)
                continue;
            if (k == 0) {
                c0 = b;
            } else if (b == clast + 1) {
                s_full++;
                if (k == 1)
                    stream1 = 1;
            }
            clast = b;
            k++;
        }

        /* first free color: the paper's (~s) & (s + 1) step */
        i64 wd = 0;
        while (mark[wd] == FULL_WORD)
            wd++;
        u64 s = mark[wd];
        colors[v] = wd * WORD_BITS
                    + (i64)__builtin_popcountll(((~s) & (s + 1ULL)) - 1ULL) + 1;
        memset(mark, 0, (hiw + 1) * sizeof(u64));
        if (colors[v] > max_colors)
            break;

        /* per-task cycle inputs; without PUV n_le == deg, so these
         * reduce to consumed = deg, compares = 0 */
        i64 larger = n_le < deg;
        i64 consumed = srt ? n_le + larger : deg;
        i64 compares = srt ? larger : deg - n_le;
        i64 needed = prefix_blocks(hb, eb, v, consumed, epb, block_bits);
        i64 edge_dram = needed * (sc + 1);
        acc[A_BLOCKS_NEEDED] += needed;
        acc[A_BLOCKS_SAVED] +=
            prefix_blocks(hb, eb, v, deg, epb, block_bits) - needed;
        acc[A_PRUNED] += deg - n_le;
        acc[A_CACHE] += hdv;
        acc[A_LDV] += ldv;
        acc[A_MI] += ldv - k;
        acc[A_K] += k;

        i64 ct = setup + n_le + compares + hitx * hdv;
        i64 dr = edge_dram + s_full * sc + (k - s_full) * rc;
        if (nd == 0) {
            if (mgr) {
                if (c0 == carry[pe]) {
                    /* branch A: the first run merges with the carry and
                     * run 1's stream continuation is lost */
                    acc[A_COUNT_A]++;
                    i64 s_a = s_full - stream1;
                    dr = edge_dram + s_a * sc + (k - 1 - s_a) * rc;
                }
                if (clast >= 0)
                    carry[pe] = clast;
            }
        } else {
            /* correction path: replay the fetch sequence without the
             * deferred neighbours */
            acc[A_CONFLICTS] += nd;
            i64 cur = carry[pe];
            i64 last_c = -1;
            i64 merged = 0, misses = 0, stream = 0, reads = 0;
            for (i64 i = 0; i < deg; i++) {
                i64 w = row[i];
                if ((puv && w > v) || w < v_t || in_list(dlist, nd, w))
                    continue;
                i64 b = w / cpb;
                reads++;
                if (mgr && b == cur) {
                    merged++;
                } else {
                    misses++;
                    if (last_c >= 0 && b == last_c + 1)
                        stream++;
                    last_c = b;
                    cur = b;
                }
            }
            if (mgr)
                carry[pe] = cur;
            dr = edge_dram + stream * sc + (misses - stream) * rc;
            ct -= hitx * d_hdv_occ;
            acc[A_CONF_LDV_BASE] += ldv;
            acc[A_CONF_LDV_READS] += reads;
            acc[A_CONF_MERGED] += merged;
            acc[A_CONF_MISSES] += misses;
            acc[A_CONF_MI] += ldv - k;
            acc[A_CONF_K] += k;
            acc[A_CONF_HDV_OCC] += d_hdv_occ;
        }

        /* finalize cycles (Steps 6-7) */
        i64 cf = bwc ? fin_bwc : colors[v] + seen[pe];
        if (!bwc && colors[v] > seen[pe])
            seen[pe] = colors[v];
        if (nd > 0)
            cf += or_cyc;

        /* write-back + physical DRAM channel queueing */
        i64 wc = v < v_t ? 1 : wc_ldv;
        i64 dd = v < v_t ? dr : dr + wc;
        i64 qd = 0;
        if (dd > 0) {
            i64 si = 0;
            for (i64 q = 1; q < ns; q++)
                if (servers[q] < servers[si])
                    si = q;
            qd = servers[si] > t ? servers[si] - t : 0;
            servers[si] = t + qd + dd;
        }

        /* finish recurrence */
        i64 te = t + ct + qd + dr;
        i64 stall = dep > te ? dep - te : 0;
        i64 fin = te + stall + cf + wc;

        pe_free[pe] = fin;
        finish_v[v] = fin;
        if (fin > maxfin)
            maxfin = fin;
        if (mgr && v >= v_t)
            heap_push(heap_fin, heap_blk, &heap_size, fin, v / cpb);

        acc[A_COMP] += ct + cf;
        acc[A_DRAM] += dr;
        acc[A_WC] += wc;
        acc[A_STALL] += stall;
        acc[A_QUEUE] += qd;
        ep[1] = maxfin;
        ep[2] += nd;
        ep[3] += stall;
    }

    acc[A_MAXFIN] = maxfin;
    free(buf);
    return 0;
}
"""

_I64 = ctypes.POINTER(ctypes.c_longlong)
_U64 = ctypes.POINTER(ctypes.c_ulonglong)

_LIB_CACHE: dict = {}


def _find_compiler() -> Optional[str]:
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return shutil.which(cc)
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compiler_version(cc: str) -> str:
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        )
        first = (out.stdout or out.stderr).splitlines()
        return first[0].strip() if first else "unknown"
    except Exception:
        return "unknown"


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    home = Path.home() / ".cache" / "repro_native"
    try:
        home.mkdir(parents=True, exist_ok=True)
        return home
    except OSError:
        return Path(tempfile.gettempdir()) / "repro_native"


def _build(cc: str, version: str) -> Path:
    """Compile (or reuse) the shared object; returns its path."""
    key = hashlib.sha256(
        (_C_SOURCE + "\0" + cc + "\0" + version).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    so_path = cache / f"bitcolor_native_{key}.so"
    if so_path.exists():
        return so_path
    src_path = cache / f"bitcolor_native_{key}.c"
    src_path.write_text(_C_SOURCE)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(cache))
    os.close(fd)
    try:
        subprocess.run(
            [cc, "-O3", "-fPIC", "-shared", "-o", tmp, str(src_path)],
            check=True,
            capture_output=True,
            text=True,
            timeout=300,
        )
        os.replace(tmp, so_path)  # atomic: concurrent builders converge
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _as_i64(arr: np.ndarray):
    return arr.ctypes.data_as(_I64)


def _as_u64(arr: np.ndarray):
    return arr.ctypes.data_as(_U64)


class _CCKernels:
    """ctypes bindings over the compiled translation unit."""

    name = "cc"

    def __init__(self, lib: ctypes.CDLL, compiler: str, version: str, path: Path):
        self.version = version
        self.compiler = compiler
        self.library_path = str(path)
        self._lib = lib
        ll = ctypes.c_longlong
        lib.bc_scatter_or.restype = ll
        lib.bc_scatter_or.argtypes = [_I64, _I64, ll, _U64, ll, ll, _I64]
        lib.bc_first_free.restype = ll
        lib.bc_first_free.argtypes = [_U64, ll, ll, _I64]
        lib.bc_replay_run.restype = ll
        lib.bc_replay_run.argtypes = [_I64] * 5 + [ll] * 20 + [_I64] * 3

    # -- raw kernels ---------------------------------------------------
    def scatter_or(
        self,
        rows: np.ndarray,
        colors: np.ndarray,
        out: np.ndarray,
        num_rows: int,
        num_words: int,
    ) -> Tuple[int, int]:
        """Returns ``(status, detail)``: status >= 0 is words_ored."""
        detail = ctypes.c_longlong(0)
        status = self._lib.bc_scatter_or(
            _as_i64(rows),
            _as_i64(colors),
            rows.size,
            _as_u64(out),
            num_rows,
            num_words,
            ctypes.byref(detail),
        )
        return int(status), int(detail.value)

    def first_free(self, states: np.ndarray, out: np.ndarray) -> int:
        """0 on success, ``row + 1`` when that row is saturated."""
        return int(
            self._lib.bc_first_free(
                _as_u64(states), states.shape[0], states.shape[1], _as_i64(out)
            )
        )

    def replay_epoch(self, graph, pe_bind, layout, scalars, epoch_size: int):
        """Color and replay a whole batched-engine run (see hw/batched.py).

        Despite the name, one call covers every epoch.  ``layout`` is a
        compressed ``EdgeLayout`` or None; ``scalars`` are the 18 config
        scalars of ``bc_replay_run`` in order.  Returns ``(colors,
        totals, epochs)``: the 22 totals in ``A_*`` order and one
        ``[first_start, maxfin, conflicts, stall]`` row per epoch.
        """
        n = graph.num_vertices
        offsets = np.ascontiguousarray(graph.offsets, dtype=np.int64)
        edges = np.ascontiguousarray(graph.edges, dtype=np.int64)
        hb = eb = None
        if layout is not None:
            hb = np.ascontiguousarray(layout.header_bits, dtype=np.int64)
            eb = np.ascontiguousarray(layout.entry_bits, dtype=np.int64)
        colors = np.zeros(n, dtype=np.int64)
        totals = np.zeros(22, dtype=np.int64)
        epochs = np.zeros((-(-n // epoch_size), 4), dtype=np.int64)
        status = self._lib.bc_replay_run(
            _as_i64(offsets), _as_i64(edges), _as_i64(pe_bind),
            None if hb is None else _as_i64(hb),
            None if eb is None else _as_i64(eb),
            n, *[int(s) for s in scalars], epoch_size,
            _as_i64(colors), _as_i64(totals), _as_i64(epochs),
        )
        if status < 0:
            raise MemoryError("native replay could not allocate its work buffers")
        return colors, totals.tolist(), epochs.tolist()


def load() -> _CCKernels:
    """Build/load the compiled kernels; raises when no compiler works."""
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc/gcc/clang) found on PATH")
    version = _compiler_version(cc)
    so_path = _build(cc, version)
    key = str(so_path)
    if key not in _LIB_CACHE:
        _LIB_CACHE[key] = ctypes.CDLL(key)
    return _CCKernels(_LIB_CACHE[key], cc, version, so_path)
