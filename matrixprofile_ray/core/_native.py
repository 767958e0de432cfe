"""Optional C fast paths: the MPX diagonal recurrence, the Gorilla
codecs, the forward-mean gap fill of ``core.preprocess`` and the STAMPI
append loop of ``core.stampi``.

The numpy block kernel (mpx.py) makes ~13 full passes over O(block)
scratch per diagonal block; under a 24-actor pool that saturates memory
bandwidth and caps cluster scaling. The scalar diagonal-streaming loop
below touches O(n) state once per cell — compute-bound, so actor pools
scale linearly with cores.

Compiled on first import with the system C compiler into the package dir
(shared by every Ray worker on the node via the filesystem; an O_EXCL
lock file keeps concurrent workers from racing the compile). If no
compiler is available the import fails soft with one ``RuntimeWarning``
and callers fall back to the numpy kernels — results are identical either
way (same update order and tie-breaking; parity-tested in
tests/test_kernels.py and tests/test_preprocess.py).

The build passes ``-ffp-contract=off``: a compiler may otherwise fuse a
multiply and an add into one FMA (GCC does by default on aarch64), which
rounds once instead of twice and breaks bit-identity with the numpy
mirrors. x86-64 builds without ``-march`` emit no FMA, so their output
is the same with or without the flag.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import tempfile
import time
import warnings

import numpy as np

__all__ = [
    "native_mpx_self", "native_mpx_ab", "available",
    "native_gorilla_encode", "native_gorilla_decode",
    "native_ts_encode", "native_ts_decode", "native_impute_forward_mean",
    "native_stampi_extend",
]

_SRC = r"""
#include <math.h>
#include <stdint.h>

/* Forward-mean gap fill after the head window is filled: each non-finite
   x[t] (t >= w) becomes the mean of the w-1 values before it, which are
   final by then. The sum starts at +0.0 and runs left to right, as
   Python's sum() over a list does (so a -0.0 run fills with +0.0). */
void impute_fwd_mean(double *x, int64_t n, int64_t w)
{
    for (int64_t t = w; t < n; t++) {
        if (isfinite(x[t])) continue;
        double s = 0.0;
        for (int64_t k = t - w + 1; k < t; k++) s += x[k];
        x[t] = s / (double)(w - 1);
    }
}

/* STAMPI: subsequences s in [s0, s1) of ts (n values, window w) join a
   self-join profile whose entries [0, s0) are final. Per s, in one pass:
   the query's stats from its own sums; each earlier window j's stats by
   moving_avg_std's cumsum formula (running sums in the same order, so
   bit-identical); the dot product summed in k order from +0.0; the
   distance by mathutil.distance_profile's formula, inf for a constant
   window on either side or a non-finite value; a strict-< merge into
   mp[j] for j < s - ez, and mp[s]/pi[s] = the first minimum there
   (inf/0 when there is none). */
void stampi_extend(const double *ts, int64_t n, int64_t w, int64_t ez,
                   int64_t s0, int64_t s1, double *mp, int64_t *pi)
{
    const double dw = (double)w;
    if (s1 > n - w + 1) s1 = n - w + 1;
    for (int64_t s = s0; s < s1; s++) {
        const double *q = ts + s;
        double qs = q[0], qs2 = q[0] * q[0];
        for (int64_t k = 1; k < w; k++) { qs += q[k]; qs2 += q[k] * q[k]; }
        double qmu = qs / dw, qv = qs2 / dw - qmu * qmu;
        double qsig = sqrt(qv > 0.0 || isnan(qv) ? qv : 0.0);
        double best = INFINITY;
        int64_t bi = 0;
        int64_t cut = s - ez;
        if (qsig != 0.0 && cut > 0) {
            /* cs/cs2 run as np.cumsum: hi = cs[j + w - 1], lo = cs[j - 1] */
            double hi = ts[0], hi2 = ts[0] * ts[0], lo = 0.0, lo2 = 0.0;
            for (int64_t k = 1; k < w; k++) { hi += ts[k]; hi2 += ts[k] * ts[k]; }
            for (int64_t j = 0; j < cut; j++) {
                if (j) {
                    double a = ts[j + w - 1], b = ts[j - 1];
                    hi += a; hi2 += a * a;
                    if (j == 1) { lo = b; lo2 = b * b; }
                    else { lo += b; lo2 += b * b; }
                }
                double acc = 0.0;
                for (int64_t k = 0; k < w; k++) acc += ts[j + k] * q[k];
                double sm = j ? hi - lo : hi, sq = j ? hi2 - lo2 : hi2;
                double mj = sm / dw, v = sq / dw - mj * mj;
                double sj = sqrt(v > 0.0 || isnan(v) ? v : 0.0);
                double d = INFINITY;
                if (sj != 0.0) {
                    double arg = 2.0 * (dw - (acc - dw * mj * qmu) / (sj * qsig));
                    if (isfinite(arg)) d = sqrt(arg > 0.0 ? arg : 0.0);
                }
                if (d < mp[j]) { mp[j] = d; pi[j] = s; }
                if (d < best) { best = d; bi = j; }
            }
        }
        mp[s] = best;
        pi[s] = bi;
    }
}

/* Self-join: diagonals ascending over [first_diag, last_diag); within a
   diagonal, offsets ascending; strict > updates reproduce the numpy
   kernel's (col-before-row, earlier-diagonal-wins) tie-breaking exactly.
   A partial diagonal range yields a partial profile that left-fold
   merges (strict >, ascending ranges) into the full profile — the
   distributed fan-out path for one giant series. */
void mpx_self(const double *ts, const double *mu, const double *sig,
              const double *df, const double *dg,
              int64_t plen, int64_t w, int64_t first_diag, int64_t last_diag,
              double *mp, int64_t *mpi)
{
    if (last_diag > plen) last_diag = plen;
    for (int64_t d = first_diag; d < last_diag; d++) {
        double cov = 0.0;
        for (int64_t k = 0; k < w; k++)
            cov += (ts[d + k] - mu[d]) * (ts[k] - mu[0]);
        int64_t lim = plen - d;
        for (int64_t o = 0; o < lim; o++) {
            if (o)
                cov += df[o] * dg[o + d] + df[o + d] * dg[o];
            double corr = cov * sig[o] * sig[o + d];
            if (corr > mp[o])     { mp[o] = corr;     mpi[o] = o + d; }
            if (corr > mp[o + d]) { mp[o + d] = corr; mpi[o + d] = o; }
        }
    }
}

/* One AB sweep: outer series indexed at o+d, inner at o. Call twice with
   roles swapped for the full similarity join. */
void mpx_ab_sweep(const double *outer, const double *mu_o, const double *sig_o,
                  const double *df_o, const double *dg_o, int64_t plen_o,
                  const double *inner, const double *mu_i, const double *sig_i,
                  const double *df_i, const double *dg_i, int64_t plen_i,
                  int64_t w,
                  double *mp_o, int64_t *mpi_o,
                  double *mp_i, int64_t *mpi_i)
{
    for (int64_t d = 0; d < plen_o; d++) {
        double cov = 0.0;
        for (int64_t k = 0; k < w; k++)
            cov += (outer[d + k] - mu_o[d]) * (inner[k] - mu_i[0]);
        int64_t lim = plen_o - d;
        if (plen_i < lim) lim = plen_i;
        for (int64_t o = 0; o < lim; o++) {
            if (o)
                cov += df_i[o] * dg_o[o + d] + df_o[o + d] * dg_i[o];
            double corr = cov * sig_i[o] * sig_o[o + d];
            if (corr > mp_i[o])     { mp_i[o] = corr;     mpi_i[o] = o + d; }
            if (corr > mp_o[o + d]) { mp_o[o + d] = corr; mpi_o[o + d] = o; }
        }
    }
}

/* ---- Gorilla codecs: bit-exact C replicas of core/gorilla.py ---- */

typedef struct { uint8_t *buf; int64_t len; unsigned __int128 acc; int nbits; } bw_t;

static inline void bw_write(bw_t *w, uint64_t value, int bits)
{
    uint64_t mask = (bits >= 64) ? ~0ULL : ((1ULL << bits) - 1);
    w->acc = (w->acc << bits) | (value & mask);
    w->nbits += bits;
    while (w->nbits >= 8) {
        w->nbits -= 8;
        w->buf[w->len++] = (uint8_t)((uint64_t)(w->acc >> w->nbits) & 0xFF);
    }
    w->acc &= (((unsigned __int128)1) << w->nbits) - 1;
}

static inline int64_t bw_finish(bw_t *w)
{
    if (w->nbits)
        w->buf[w->len++] = (uint8_t)(((uint64_t)w->acc << (8 - w->nbits)) & 0xFF);
    return w->len;
}

typedef struct { const uint8_t *data; int64_t pos; int64_t len; } br_t;

static inline uint64_t br_read(br_t *r, int bits)
{
    uint64_t out = 0;
    int remaining = bits;
    if (r->pos + bits > r->len) {   /* truncated/corrupt payload: poison */
        r->pos = r->len + bits;     /* caller detects pos > len and bails */
        return 0;
    }
    while (remaining) {
        int64_t byte_idx = r->pos >> 3;
        int bit_idx = (int)(r->pos & 7);
        int take = 8 - bit_idx;
        if (take > remaining) take = remaining;
        uint8_t chunk = r->data[byte_idx] >> (8 - bit_idx - take);
        out = (out << take) | (uint64_t)(chunk & ((1 << take) - 1));
        r->pos += take;
        remaining -= take;
    }
    return out;
}

int64_t gorilla_encode_f(const uint64_t *bits, int64_t n, uint8_t *out)
{
    bw_t w = {out, 0, 0, 0};
    bw_write(&w, (uint64_t)n, 32);
    if (n > 0) {
        bw_write(&w, bits[0], 64);
        uint64_t prev = bits[0];
        int prev_lead = -1, prev_len = 0;
        for (int64_t i = 1; i < n; i++) {
            uint64_t cur = bits[i];
            uint64_t x = prev ^ cur;
            prev = cur;
            if (!x) { bw_write(&w, 0, 1); continue; }
            int lead = __builtin_clzll(x);
            int trail = __builtin_ctzll(x);
            if (lead > 31) lead = 31;
            if (prev_lead >= 0 && lead >= prev_lead
                && trail >= 64 - prev_lead - prev_len) {
                bw_write(&w, 2, 2);
                bw_write(&w, x >> (64 - prev_lead - prev_len), prev_len);
            } else {
                int mbits = 64 - lead - trail;
                bw_write(&w, 3, 2);
                bw_write(&w, (uint64_t)lead, 5);
                bw_write(&w, (uint64_t)(mbits - 1), 6);
                bw_write(&w, x >> trail, mbits);
                prev_lead = lead; prev_len = mbits;
            }
        }
    }
    return bw_finish(&w);
}

int64_t gorilla_decode_f(const uint8_t *data, int64_t data_len, uint64_t *out)
{
    br_t r = {data, 0, data_len * 8};
    int64_t n = (int64_t)br_read(&r, 32);
    if (n == 0) return 0;
    uint64_t prev = br_read(&r, 64);
    out[0] = prev;
    int prev_lead = -1, prev_len = 0;
    for (int64_t i = 1; i < n; i++) {
        if (br_read(&r, 1) == 0) { out[i] = prev; continue; }
        int lead, mbits;
        if (br_read(&r, 1) == 0) { lead = prev_lead; mbits = prev_len; }
        else {
            lead = (int)br_read(&r, 5);
            mbits = (int)br_read(&r, 6) + 1;
            prev_lead = lead; prev_len = mbits;
        }
        uint64_t x = br_read(&r, mbits) << (64 - lead - mbits);
        prev ^= x;
        out[i] = prev;
        if (r.pos > r.len) return -1;
    }
    if (r.pos > r.len) return -1;
    return n;
}

int64_t ts_encode(const int64_t *ts, int64_t n, uint8_t *out)
{
    bw_t w = {out, 0, 0, 0};
    bw_write(&w, (uint64_t)n, 32);
    if (n >= 1) bw_write(&w, (uint64_t)ts[0], 64);
    if (n >= 2) {
        int64_t delta = ts[1] - ts[0];
        bw_write(&w, (uint64_t)delta, 64);
        for (int64_t i = 2; i < n; i++) {
            int64_t nd = ts[i] - ts[i - 1];
            int64_t dod = nd - delta;
            delta = nd;
            if (dod == 0) { bw_write(&w, 0, 1); continue; }
            if (dod >= -64 && dod <= 63) {
                bw_write(&w, 2, 2); bw_write(&w, (uint64_t)dod, 7);
            } else if (dod >= -256 && dod <= 255) {
                bw_write(&w, 6, 3); bw_write(&w, (uint64_t)dod, 9);
            } else if (dod >= -2048 && dod <= 2047) {
                bw_write(&w, 14, 4); bw_write(&w, (uint64_t)dod, 12);
            } else {
                bw_write(&w, 15, 4); bw_write(&w, (uint64_t)dod, 64);
            }
        }
    }
    return bw_finish(&w);
}

static inline int64_t br_signed(br_t *r, int bits)
{
    uint64_t v = br_read(r, bits);
    if (bits < 64 && v >= (1ULL << (bits - 1)))
        return (int64_t)(v - (1ULL << bits));
    return (int64_t)v;
}

int64_t ts_decode(const uint8_t *data, int64_t data_len, int64_t *out)
{
    br_t r = {data, 0, data_len * 8};
    int64_t n = (int64_t)br_read(&r, 32);
    if (n == 0) return 0;
    out[0] = br_signed(&r, 64);
    if (r.pos > r.len) return -1;
    if (n == 1) return 1;
    int64_t delta = br_signed(&r, 64);
    out[1] = out[0] + delta;
    for (int64_t i = 2; i < n; i++) {
        int64_t dod;
        if (br_read(&r, 1) == 0) dod = 0;
        else {
            int cls = 0;
            while (cls < 3 && br_read(&r, 1) == 1) cls++;
            static const int vb[4] = {7, 9, 12, 64};
            dod = br_signed(&r, vb[cls]);
        }
        delta += dod;
        out[i] = out[i - 1] + delta;
        if (r.pos > r.len) return -1;
    }
    if (r.pos > r.len) return -1;
    return n;
}
"""

_LIB = None


def _build_dir() -> str:
    return os.path.dirname(os.path.abspath(__file__))


# versioned filename: the ABI changes (last_diag, gorilla codecs, the
# gap fill, the STAMPI loop) mean a stale cached .so without a symbol
# must never be dlopen'ed
_SO_NAME = "_native_mpx_v6.so"


def _compile() -> tuple[str | None, str]:
    """Path of the built library (None if the build failed) and, on
    failure, why."""
    out = os.path.join(_build_dir(), _SO_NAME)
    if os.path.exists(out):
        return out, ""
    lock = out + ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        # another worker is compiling; wait briefly for it
        for _ in range(100):
            if os.path.exists(out):
                return out, ""
            time.sleep(0.1)
        return None, f"timed out waiting for another process's build ({lock})"
    try:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".c", delete=False, dir=_build_dir()
        ) as fh:
            fh.write(_SRC)
            src = fh.name
        why = "no C compiler found (tried cc, gcc, clang)"
        for cc in ("cc", "gcc", "clang"):
            try:
                res = subprocess.run(
                    [cc, "-O3", "-ffp-contract=off", "-fPIC", "-shared",
                     "-o", out + ".tmp", src],
                    capture_output=True,
                    timeout=60,
                )
            except FileNotFoundError:
                continue
            if res.returncode == 0:
                os.replace(out + ".tmp", out)
                break
            why = f"{cc} failed: {res.stderr.decode(errors='replace').strip()}"
        os.unlink(src)
        return (out, "") if os.path.exists(out) else (None, why)
    finally:
        try:
            os.unlink(lock)
        except OSError:
            pass


def _load():
    global _LIB
    if _LIB is not None:
        return _LIB
    path, why = _compile()
    try:
        if path is None:
            raise OSError(why)
        lib = ctypes.CDLL(path)
    except OSError as exc:
        warnings.warn(f"native kernels unavailable, using the numpy paths: "
                      f"{exc}", RuntimeWarning, stacklevel=2)
        _LIB = False
        return _LIB
    dp = ctypes.POINTER(ctypes.c_double)
    ip = ctypes.POINTER(ctypes.c_int64)
    i64 = ctypes.c_int64
    lib.mpx_self.argtypes = [dp, dp, dp, dp, dp, i64, i64, i64, i64, dp, ip]
    lib.mpx_self.restype = None
    lib.mpx_ab_sweep.argtypes = [
        dp, dp, dp, dp, dp, i64,
        dp, dp, dp, dp, dp, i64,
        i64, dp, ip, dp, ip,
    ]
    lib.mpx_ab_sweep.restype = None
    u8p = ctypes.POINTER(ctypes.c_uint8)
    u64p = ctypes.POINTER(ctypes.c_uint64)
    lib.gorilla_encode_f.argtypes = [u64p, i64, u8p]
    lib.gorilla_encode_f.restype = i64
    lib.gorilla_decode_f.argtypes = [u8p, i64, u64p]
    lib.gorilla_decode_f.restype = i64
    lib.ts_encode.argtypes = [ip, i64, u8p]
    lib.ts_encode.restype = i64
    lib.ts_decode.argtypes = [u8p, i64, ip]
    lib.ts_decode.restype = i64
    lib.impute_fwd_mean.argtypes = [dp, i64, i64]
    lib.impute_fwd_mean.restype = None
    lib.stampi_extend.argtypes = [dp, i64, i64, i64, i64, i64, dp, ip]
    lib.stampi_extend.restype = None
    _LIB = lib
    return _LIB


def available() -> bool:
    return bool(_load())


def _p(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_double))


def _pi(a: np.ndarray):
    return a.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))


def native_mpx_self(ts, mu, sig, df, dg, w, first_diag, mp, mpi,
                    last_diag: int | None = None) -> bool:
    lib = _load()
    if not lib:
        return False
    if last_diag is None:
        last_diag = len(mu)
    lib.mpx_self(
        _p(ts), _p(mu), _p(sig), _p(df), _p(dg),
        ctypes.c_int64(len(mu)), ctypes.c_int64(w),
        ctypes.c_int64(first_diag), ctypes.c_int64(last_diag),
        _p(mp), _pi(mpi),
    )
    return True


def native_impute_forward_mean(x: np.ndarray, w: int) -> bool:
    """Fill ``x``'s non-finite values past its (already filled) head
    window in place; False if no compiler."""
    lib = _load()
    if not lib:
        return False
    lib.impute_fwd_mean(_p(x), ctypes.c_int64(len(x)), ctypes.c_int64(w))
    return True


def native_stampi_extend(ts: np.ndarray, w: int, ez: int, s0: int,
                         mp: np.ndarray, pi: np.ndarray) -> bool:
    """Join subsequences [``s0``, ``len(mp)``) of ``ts`` into ``mp``/``pi``
    in place; False if no compiler."""
    lib = _load()
    if not lib:
        return False
    lib.stampi_extend(_p(ts), ctypes.c_int64(len(ts)), ctypes.c_int64(w),
                      ctypes.c_int64(ez), ctypes.c_int64(s0),
                      ctypes.c_int64(len(mp)), _p(mp), _pi(pi))
    return True


def native_gorilla_encode(values: np.ndarray) -> bytes | None:
    """C fast path for gorilla_encode_floats; None if no compiler."""
    lib = _load()
    if not lib:
        return None
    values = np.ascontiguousarray(values, dtype="<f8")
    n = len(values)
    out = np.empty(10 * n + 16, dtype=np.uint8)
    ln = lib.gorilla_encode_f(
        values.view("<u8").ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
        ctypes.c_int64(n),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
    )
    return out[:ln].tobytes()


def native_gorilla_decode(data: bytes) -> np.ndarray | None:
    lib = _load()
    if not lib:
        return None
    if len(data) < 4:
        raise ValueError("truncated gorilla payload (no length header)")
    n = int.from_bytes(data[:4], "big")
    # each value after the first costs >= 1 bit, so a valid payload has
    # at least n bits — reject before allocating a bogus multi-GB buffer
    if n > 8 * len(data):
        raise ValueError(f"corrupt gorilla header: n={n} for {len(data)} bytes")
    out = np.empty(n, dtype="<u8")
    buf = np.frombuffer(data, dtype=np.uint8)
    rc = lib.gorilla_decode_f(
        buf.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        ctypes.c_int64(len(data)),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
    )
    if rc < 0:
        raise ValueError("truncated/corrupt gorilla payload")
    return out.view("<f8")


def native_ts_encode(ts: np.ndarray) -> bytes | None:
    lib = _load()
    if not lib:
        return None
    ts = np.ascontiguousarray(ts, dtype=np.int64)
    n = len(ts)
    out = np.empty(9 * n + 24, dtype=np.uint8)
    ln = lib.ts_encode(
        _pi(ts), ctypes.c_int64(n),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
    )
    return out[:ln].tobytes()


def native_ts_decode(data: bytes) -> np.ndarray | None:
    lib = _load()
    if not lib:
        return None
    if len(data) < 4:
        raise ValueError("truncated timestamp payload (no length header)")
    n = int.from_bytes(data[:4], "big")
    if n > 8 * len(data):
        raise ValueError(f"corrupt timestamp header: n={n} for {len(data)} bytes")
    out = np.empty(n, dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    rc = lib.ts_decode(
        buf.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        ctypes.c_int64(len(data)), _pi(out)
    )
    if rc < 0:
        raise ValueError("truncated/corrupt timestamp payload")
    return out


def native_mpx_ab(outer, mu_o, sig_o, df_o, dg_o,
                  inner, mu_i, sig_i, df_i, dg_i,
                  w, mp_o, mpi_o, mp_i, mpi_i) -> bool:
    lib = _load()
    if not lib:
        return False
    lib.mpx_ab_sweep(
        _p(outer), _p(mu_o), _p(sig_o), _p(df_o), _p(dg_o),
        ctypes.c_int64(len(mu_o)),
        _p(inner), _p(mu_i), _p(sig_i), _p(df_i), _p(dg_i),
        ctypes.c_int64(len(mu_i)),
        ctypes.c_int64(w),
        _p(mp_o), _pi(mpi_o), _p(mp_i), _pi(mpi_i),
    )
    return True
