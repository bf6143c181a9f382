/**
 * @file
 * GEMM backend implementation.
 *
 * The blocked path follows the classic Goto/BLIS decomposition:
 *
 *   for jc in NC column blocks of C
 *     for pc in KC blocks of the reduction dimension
 *       pack B[pc, jc] into NR-wide, k-major panels          (shared)
 *       parallelFor over (MC row block, JC column group):    (threads)
 *         pack A[ic, pc] into MR-wide, k-major panels        (private)
 *         for each NR panel x MR panel: MR x NR micro-kernel
 *
 * Parallelism is only over disjoint (row block, column group) tiles
 * of C, so each element of C is written by exactly one thread and its
 * accumulation order (k within KC blocks, KC blocks in order) is
 * independent of the thread count.
 */

#include "tensor/gemm.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "tensor/ops.hh"

namespace twoinone {
namespace gemm {

namespace {

// Blocking parameters. MR x NR is the register tile (6 x 16 floats:
// twelve 8-wide accumulator vectors on AVX2); MC x KC is the packed A
// block (96 KiB, comfortably L2-resident); KC x NC bounds the packed
// B panel at 1 MiB.
constexpr int MR = 6;
constexpr int NR = 16;
constexpr int MC = 96;
constexpr int KC = 256;
constexpr int NC = 1024;

// Products up to this many multiply-adds skip packing entirely: the
// naive loops beat the blocked kernel's setup cost at this size.
constexpr int64_t kSmallProduct = 16 * 1024;

Backend &
backendSlot()
{
    static Backend b = [] {
        const char *env = std::getenv("TWOINONE_BACKEND");
        if (env && std::string(env) == "naive")
            return Backend::Naive;
        if (env && std::string(env) != "blocked")
            TWOINONE_WARN("unknown TWOINONE_BACKEND=", env,
                          ", using blocked");
        return Backend::Blocked;
    }();
    return b;
}

/** Initialize C rows for a non-accumulating call: bias or zero. */
void
initOutput(int m, int n, float *c, int ldc, const float *row_bias)
{
    for (int i = 0; i < m; ++i) {
        float *crow = c + static_cast<size_t>(i) * ldc;
        float v = row_bias ? row_bias[i] : 0.0f;
        for (int j = 0; j < n; ++j)
            crow[j] = v;
    }
}

/**
 * Reference loops restricted to output rows [i0, i1). Every variant
 * iterates each C element's reduction in ascending p order, so the
 * per-element accumulation — and therefore the result — is identical
 * whether the rows run serially ([0, m) in one call) or split across
 * threads by the light parallel small-product path.
 */
void
sgemmNaiveRows(bool trans_a, bool trans_b, int i0, int i1, int n, int k,
               const float *a, int lda, const float *b, int ldb, float *c,
               int ldc, bool accumulate, const float *row_bias)
{
    if (i1 <= i0 || n <= 0)
        return;
    if (!accumulate) {
        initOutput(i1 - i0, n, c + static_cast<size_t>(i0) * ldc, ldc,
                   row_bias ? row_bias + i0 : nullptr);
    }

    // All variants accumulate in float, matching the blocked kernel's
    // precision (the seed's matmulTransposeB used double — see
    // ISSUE 1 satellite: consistent accumulation across variants).
    if (!trans_a && !trans_b) {
        // C[i,j] += A[i,p] * B[p,j]; saxpy over rows of B.
        for (int i = i0; i < i1; ++i) {
            const float *arow = a + static_cast<size_t>(i) * lda;
            float *crow = c + static_cast<size_t>(i) * ldc;
            for (int p = 0; p < k; ++p) {
                float av = arow[p];
                const float *brow = b + static_cast<size_t>(p) * ldb;
                for (int j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    } else if (!trans_a && trans_b) {
        // C[i,j] += dot(A row i, B row j).
        for (int i = i0; i < i1; ++i) {
            const float *arow = a + static_cast<size_t>(i) * lda;
            float *crow = c + static_cast<size_t>(i) * ldc;
            for (int j = 0; j < n; ++j) {
                const float *brow = b + static_cast<size_t>(j) * ldb;
                float s = 0.0f;
                for (int p = 0; p < k; ++p)
                    s += arow[p] * brow[p];
                crow[j] += s;
            }
        }
    } else if (trans_a && !trans_b) {
        // C[i,j] += A[p,i] * B[p,j]; saxpy over rows of B per output
        // row (p ascending per element, same as the old p-outer form).
        for (int i = i0; i < i1; ++i) {
            float *crow = c + static_cast<size_t>(i) * ldc;
            for (int p = 0; p < k; ++p) {
                float av = a[static_cast<size_t>(p) * lda + i];
                const float *brow = b + static_cast<size_t>(p) * ldb;
                for (int j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
    } else {
        // Double transpose (unused by the ops layer, kept complete).
        for (int i = i0; i < i1; ++i) {
            float *crow = c + static_cast<size_t>(i) * ldc;
            for (int j = 0; j < n; ++j) {
                float s = 0.0f;
                for (int p = 0; p < k; ++p)
                    s += a[static_cast<size_t>(p) * lda + i] *
                         b[static_cast<size_t>(j) * ldb + p];
                crow[j] += s;
            }
        }
    }
}

void
sgemmNaive(bool trans_a, bool trans_b, int m, int n, int k, const float *a,
           int lda, const float *b, int ldb, float *c, int ldc,
           bool accumulate, const float *row_bias)
{
    sgemmNaiveRows(trans_a, trans_b, 0, m, n, k, a, lda, b, ldb, c, ldc,
                   accumulate, row_bias);
}

/**
 * Row chunk of the light parallel small-product path: sized so one
 * chunk carries at least ~8K multiply-adds, keeping dispatch overhead
 * negligible and letting genuinely tiny products run inline.
 */
int64_t
lightGrainRows(int n, int k)
{
    return std::max<int64_t>(
        1, (int64_t{1} << 13) / std::max<int64_t>(
               1, 2 * static_cast<int64_t>(n) * k));
}

/**
 * Pack an mc x kc block of op(A) into MR-wide k-major panels,
 * zero-padding the ragged final panel to MR rows.
 */
void
packA(bool trans_a, const float *a, int lda, int i0, int p0, int mc, int kc,
      float *dst)
{
    for (int i = 0; i < mc; i += MR) {
        int mr = mc - i < MR ? mc - i : MR;
        if (!trans_a) {
            const float *src = a + static_cast<size_t>(i0 + i) * lda + p0;
            for (int p = 0; p < kc; ++p) {
                for (int ir = 0; ir < mr; ++ir)
                    dst[ir] = src[static_cast<size_t>(ir) * lda + p];
                for (int ir = mr; ir < MR; ++ir)
                    dst[ir] = 0.0f;
                dst += MR;
            }
        } else {
            const float *src = a + static_cast<size_t>(p0) * lda + i0 + i;
            for (int p = 0; p < kc; ++p) {
                for (int ir = 0; ir < mr; ++ir)
                    dst[ir] = src[ir];
                for (int ir = mr; ir < MR; ++ir)
                    dst[ir] = 0.0f;
                src += lda;
                dst += MR;
            }
        }
    }
}

/**
 * Pack a kc x nc block of op(B) into NR-wide k-major panels,
 * zero-padding the ragged final panel to NR columns.
 */
void
packB(bool trans_b, const float *b, int ldb, int p0, int j0, int kc, int nc,
      float *dst)
{
    for (int j = 0; j < nc; j += NR) {
        int nr = nc - j < NR ? nc - j : NR;
        if (!trans_b) {
            const float *src = b + static_cast<size_t>(p0) * ldb + j0 + j;
            for (int p = 0; p < kc; ++p) {
                for (int jr = 0; jr < nr; ++jr)
                    dst[jr] = src[jr];
                for (int jr = nr; jr < NR; ++jr)
                    dst[jr] = 0.0f;
                src += ldb;
                dst += NR;
            }
        } else {
            const float *src = b + static_cast<size_t>(j0 + j) * ldb + p0;
            for (int p = 0; p < kc; ++p) {
                for (int jr = 0; jr < nr; ++jr)
                    dst[jr] = src[static_cast<size_t>(jr) * ldb + p];
                for (int jr = nr; jr < NR; ++jr)
                    dst[jr] = 0.0f;
                dst += NR;
            }
        }
    }
}

/**
 * MR x NR register-tile kernel over a kc-long packed panel pair.
 *
 * On GCC/Clang the tile is held in generic 8-wide vector-extension
 * registers (MR * NR/8 accumulators + two B vectors + one broadcast:
 * 15 of 16 ymm registers on AVX2), which compiles to NR-wide FMAs —
 * plain scalar loops get stack-spilled accumulators instead (GCC
 * reports "complicated access pattern" and emits xmm-only code,
 * ~8x slower). Both forms accumulate each output element strictly in
 * k order; within one build the kernel is deterministic for any
 * thread count (across builds/compilers FMA contraction may round
 * differently — that is covered by the tests' 1e-4 tolerance, not by
 * the bit-identical guarantee).
 */
#if defined(__GNUC__) || defined(__clang__)

typedef float Vec8 __attribute__((vector_size(32)));
static_assert(NR == 16, "micro-kernel assumes NR == 2 x 8-wide vectors");

inline void
microKernel(int kc, const float *__restrict ap, const float *__restrict bp,
            float *__restrict out)
{
    Vec8 acc0[MR] = {}, acc1[MR] = {};
    for (int p = 0; p < kc; ++p) {
        const float *av = ap + static_cast<size_t>(p) * MR;
        Vec8 b0, b1;
        __builtin_memcpy(&b0, bp + static_cast<size_t>(p) * NR,
                         sizeof(b0));
        __builtin_memcpy(&b1, bp + static_cast<size_t>(p) * NR + 8,
                         sizeof(b1));
        for (int ir = 0; ir < MR; ++ir) {
            float s = av[ir];
            Vec8 a = {s, s, s, s, s, s, s, s};
            acc0[ir] += a * b0;
            acc1[ir] += a * b1;
        }
    }
    for (int ir = 0; ir < MR; ++ir) {
        __builtin_memcpy(out + ir * NR, &acc0[ir], sizeof(Vec8));
        __builtin_memcpy(out + ir * NR + 8, &acc1[ir], sizeof(Vec8));
    }
}

#else // scalar fallback, same accumulation order

inline void
microKernel(int kc, const float *__restrict ap, const float *__restrict bp,
            float *__restrict out)
{
    float acc[MR][NR] = {};
    for (int p = 0; p < kc; ++p) {
        const float *av = ap + static_cast<size_t>(p) * MR;
        const float *bv = bp + static_cast<size_t>(p) * NR;
        for (int ir = 0; ir < MR; ++ir) {
            float aval = av[ir];
            for (int jr = 0; jr < NR; ++jr)
                acc[ir][jr] += aval * bv[jr];
        }
    }
    for (int ir = 0; ir < MR; ++ir)
        for (int jr = 0; jr < NR; ++jr)
            out[ir * NR + jr] = acc[ir][jr];
}

#endif

void
sgemmBlocked(bool trans_a, bool trans_b, int m, int n, int k, const float *a,
             int lda, const float *b, int ldb, float *c, int ldc,
             bool accumulate, const float *row_bias)
{
    if (m <= 0 || n <= 0)
        return;
    if (k <= 0) {
        if (!accumulate)
            initOutput(m, n, c, ldc, row_bias);
        return;
    }
    if (static_cast<int64_t>(m) * n * k <= kSmallProduct) {
        // Below the packing cutoff the naive loops win on setup cost,
        // but they need not run serially: rows of C are disjoint, so
        // split them across the pool (each chunk >= ~8K MACs; genuinely
        // tiny products still run inline via the grain rule, and
        // nested calls — e.g. per-image conv GEMMs inside a
        // batch-parallel loop — inline as always). Per-element
        // accumulation order is unchanged, so the result is
        // bit-identical to the serial reference for any thread count.
        ThreadPool::global().parallelFor(
            0, m, lightGrainRows(n, k), [&](int64_t lo, int64_t hi) {
                sgemmNaiveRows(trans_a, trans_b, static_cast<int>(lo),
                               static_cast<int>(hi), n, k, a, lda, b,
                               ldb, c, ldc, accumulate, row_bias);
            });
        return;
    }

    // Per-calling-thread packed-B buffer, reused across calls.
    thread_local std::vector<float> bpack;
    int mblocks = (m + MC - 1) / MC;
    // Work items are (MC row block) x (JC-column group) pairs so that
    // short-fat products (m <= MC: every Conv2d per-image GEMM) still
    // spread across threads. Column groups are NR-panel-aligned and
    // each item packs its own A block (thread-local, amortized across
    // the consecutive groups of one row block), so outputs stay
    // disjoint and the per-element accumulation order is unchanged.
    constexpr int JC = 8 * NR; // columns per work item

    for (int jc = 0; jc < n; jc += NC) {
        int nc = n - jc < NC ? n - jc : NC;
        int nc_padded = (nc + NR - 1) / NR * NR;
        int jgroups = (nc + JC - 1) / JC;
        for (int pc = 0; pc < k; pc += KC) {
            int kc = k - pc < KC ? k - pc : KC;
            bpack.resize(static_cast<size_t>(nc_padded) * kc);
            packB(trans_b, b, ldb, pc, jc, kc, nc, bpack.data());

            // First KC block of a non-accumulating call stores (and
            // applies the bias); every later block adds.
            bool first = pc == 0 && !accumulate;
            const float *bias = pc == 0 ? row_bias : nullptr;
            const float *bp = bpack.data();

            ThreadPool::global().parallelFor(
                0, static_cast<int64_t>(mblocks) * jgroups, 1,
                [&, first, bias, bp, jc, nc, pc, kc,
                 jgroups](int64_t ilo, int64_t ihi) {
                    thread_local std::vector<float> apack;
                    apack.resize(static_cast<size_t>(MC) * KC);
                    float acc[MR * NR];
                    int packed_bi = -1;
                    for (int64_t item = ilo; item < ihi; ++item) {
                        int bi = static_cast<int>(item / jgroups);
                        int jg = static_cast<int>(item % jgroups);
                        int ic = bi * MC;
                        int mc = m - ic < MC ? m - ic : MC;
                        if (bi != packed_bi) {
                            packA(trans_a, a, lda, ic, pc, mc, kc,
                                  apack.data());
                            packed_bi = bi;
                        }
                        int jlo = jg * JC;
                        int jhi = nc < jlo + JC ? nc : jlo + JC;
                        for (int j = jlo; j < jhi; j += NR) {
                            int nr = nc - j < NR ? nc - j : NR;
                            const float *bpanel =
                                bp + static_cast<size_t>(j / NR) * kc * NR;
                            for (int i = 0; i < mc; i += MR) {
                                int mr = mc - i < MR ? mc - i : MR;
                                const float *apanel =
                                    apack.data() +
                                    static_cast<size_t>(i / MR) * kc * MR;
                                microKernel(kc, apanel, bpanel, acc);
                                for (int ir = 0; ir < mr; ++ir) {
                                    int row = ic + i + ir;
                                    float *crow =
                                        c +
                                        static_cast<size_t>(row) * ldc +
                                        jc + j;
                                    const float *accrow = acc + ir * NR;
                                    if (first) {
                                        float bv =
                                            bias ? bias[row] : 0.0f;
                                        for (int jr = 0; jr < nr; ++jr)
                                            crow[jr] = accrow[jr] + bv;
                                    } else {
                                        for (int jr = 0; jr < nr; ++jr)
                                            crow[jr] += accrow[jr];
                                    }
                                }
                            }
                        }
                    }
                });
        }
    }
}

} // namespace

Backend
activeBackend()
{
    return backendSlot();
}

void
setActiveBackend(Backend b)
{
    backendSlot() = b;
}

const char *
backendName(Backend b)
{
    return b == Backend::Naive ? "naive" : "blocked";
}

void
sgemm(Backend backend, bool trans_a, bool trans_b, int m, int n, int k,
      const float *a, int lda, const float *b, int ldb, float *c, int ldc,
      bool accumulate, const float *row_bias)
{
    TWOINONE_ASSERT(!(accumulate && row_bias),
                    "sgemm row_bias requires accumulate == false");
    if (backend == Backend::Naive)
        sgemmNaive(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
                   accumulate, row_bias);
    else
        sgemmBlocked(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
                     accumulate, row_bias);
}

void
sgemm(bool trans_a, bool trans_b, int m, int n, int k, const float *a,
      int lda, const float *b, int ldb, float *c, int ldc, bool accumulate,
      const float *row_bias)
{
    sgemm(activeBackend(), trans_a, trans_b, m, n, k, a, lda, b, ldb, c,
          ldc, accumulate, row_bias);
}

bool
smallGemmRunsParallel(int m, int n, int k)
{
    if (static_cast<int64_t>(m) * n * k > kSmallProduct)
        return false; // not a small product: blocked path
    return activeBackend() == Backend::Blocked &&
           ThreadPool::global().threads() > 1 &&
           !ThreadPool::inParallelRegion() && m > lightGrainRows(n, k);
}

// ---------------------------------------------------------------------------
// Integer GEMM: C[m,n](int64) = A[m,k] * B[n,k]^T over grid codes.
// ---------------------------------------------------------------------------

namespace {

/**
 * Rows [i0, i1) of the integer product with explicit product and
 * accumulator types. Narrow (<= 16-bit) operand pairs multiply in
 * int32 — the worst-case product (2^15-1) * (2^16-1) still fits — so
 * the compiler can vectorize the multiplies and only the adds widen.
 * Columns run in tiles of four with independent accumulators: the
 * shared A-row loads amortize and the four dot products keep more
 * vector lanes busy. Integer arithmetic is exact, so the tiling, any
 * (PT, ACC) combination, and any row chunking agree bit-for-bit
 * whenever nothing can overflow.
 */
template <typename AT, typename BT, typename PT, typename ACC>
void
igemmRowsTransB(int64_t i0, int64_t i1, int n, int k, const AT *a, int lda,
                const BT *b, int ldb, int64_t *c, int ldc)
{
    for (int64_t i = i0; i < i1; ++i) {
        const AT *arow = a + static_cast<size_t>(i) * lda;
        int64_t *crow = c + static_cast<size_t>(i) * ldc;
        int j = 0;
        for (; j + 4 <= n; j += 4) {
            const BT *b0 = b + static_cast<size_t>(j) * ldb;
            const BT *b1 = b0 + ldb;
            const BT *b2 = b1 + ldb;
            const BT *b3 = b2 + ldb;
            ACC a0 = 0, a1 = 0, a2 = 0, a3 = 0;
            for (int p = 0; p < k; ++p) {
                PT av = static_cast<PT>(arow[p]);
                a0 += static_cast<ACC>(av * static_cast<PT>(b0[p]));
                a1 += static_cast<ACC>(av * static_cast<PT>(b1[p]));
                a2 += static_cast<ACC>(av * static_cast<PT>(b2[p]));
                a3 += static_cast<ACC>(av * static_cast<PT>(b3[p]));
            }
            crow[j] = static_cast<int64_t>(a0);
            crow[j + 1] = static_cast<int64_t>(a1);
            crow[j + 2] = static_cast<int64_t>(a2);
            crow[j + 3] = static_cast<int64_t>(a3);
        }
        for (; j < n; ++j) {
            const BT *brow = b + static_cast<size_t>(j) * ldb;
            ACC acc = 0;
            for (int p = 0; p < k; ++p) {
                acc += static_cast<ACC>(static_cast<PT>(arow[p]) *
                                        static_cast<PT>(brow[p]));
            }
            crow[j] = static_cast<int64_t>(acc);
        }
    }
}

/** Worst-case |accumulator| bound of a w_bits x a_bits reduction of
 * length k (computed in double: the bound itself may exceed int64 for
 * absurd inputs, and only the <= INT32_MAX comparison matters).
 * w_bits == 1 is the binary {-1, +1} grid whose magnitude is 1, not
 * 2^0 - 1 = 0 (matches LinearQuantizer::signedQmax). */
inline bool
int32AccumulationFits(int w_bits, int a_bits, int k)
{
    double qw = (w_bits == 1)
                    ? 1.0
                    : static_cast<double>((1LL << (w_bits - 1)) - 1);
    double qa = static_cast<double>((1LL << a_bits) - 1);
    return qw * qa * static_cast<double>(k) <=
           static_cast<double>(std::numeric_limits<int32_t>::max());
}

template <typename AT, typename BT, typename PT>
void
igemmDispatch(int m, int n, int k, const AT *a, int lda, const BT *b,
              int ldb, int64_t *c, int ldc, bool acc32)
{
    if (m <= 0 || n <= 0)
        return;
    int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 15) /
                                 std::max<int64_t>(
                                     1, static_cast<int64_t>(n) * k));
    ops::gatedParallelFor(m, grain, [&](int64_t lo, int64_t hi) {
        if (acc32) {
            igemmRowsTransB<AT, BT, PT, int32_t>(lo, hi, n, k, a, lda,
                                                 b, ldb, c, ldc);
        } else {
            igemmRowsTransB<AT, BT, PT, int64_t>(lo, hi, n, k, a, lda,
                                                 b, ldb, c, ldc);
        }
    });
}

} // namespace

void
igemmTransB(int m, int n, int k, const int8_t *a, int lda,
            const uint8_t *b, int ldb, int64_t *c, int ldc, int w_bits,
            int a_bits)
{
    TWOINONE_ASSERT(w_bits >= 1 && w_bits <= 8 && a_bits >= 1 &&
                        a_bits <= 8,
                    "int8 igemm needs codes of <= 8 bits");
    igemmDispatch<int8_t, uint8_t, int32_t>(
        m, n, k, a, lda, b, ldb, c, ldc,
        int32AccumulationFits(w_bits, a_bits, k));
}

void
igemmTransB(int m, int n, int k, const int16_t *a, int lda,
            const uint16_t *b, int ldb, int64_t *c, int ldc, int w_bits,
            int a_bits)
{
    TWOINONE_ASSERT(w_bits >= 1 && w_bits <= 16 && a_bits >= 1 &&
                        a_bits <= 16,
                    "int16 igemm needs codes of <= 16 bits");
    igemmDispatch<int16_t, uint16_t, int32_t>(
        m, n, k, a, lda, b, ldb, c, ldc,
        int32AccumulationFits(w_bits, a_bits, k));
}

void
igemmTransB(int m, int n, int k, const int32_t *a, int lda,
            const int32_t *b, int ldb, int64_t *c, int ldc)
{
    // Wide-code variant (post-quantization integer tensors): 64-bit
    // products and accumulation throughout.
    igemmDispatch<int32_t, int32_t, int64_t>(m, n, k, a, lda, b, ldb, c,
                                             ldc, /*acc32=*/false);
}

} // namespace gemm
} // namespace twoinone
