/**
 * @file
 * Single-precision GEMM backends: a cache-blocked, packed, parallel
 * kernel (default) and a retained naive triple-loop reference.
 *
 * The backend is selected once per process from TWOINONE_BACKEND
 * ("naive" forces the reference path; anything else, or unset, means
 * blocked) and can be overridden programmatically by benches/tests
 * via setActiveBackend().
 *
 * Determinism contract: for a fixed backend, results are
 * bit-identical across TWOINONE_THREADS settings. The blocked kernel
 * accumulates each output element strictly in k order within KC-sized
 * blocks and parallelizes only over disjoint row blocks of C, so the
 * summation order never depends on the thread count. The naive and
 * blocked backends both accumulate in float (no double, no Kahan) but
 * in different orders, so they agree only to float rounding — the
 * tests bound this at 1e-4 relative error (see tests/test_gemm.cc).
 */

#ifndef TWOINONE_TENSOR_GEMM_HH
#define TWOINONE_TENSOR_GEMM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace twoinone {
namespace gemm {

/** Which GEMM implementation services ops::matmul* and Conv2d. */
enum class Backend {
    Naive,   ///< Reference triple loops, always serial.
    Blocked, ///< Packed MC/KC/NC-tiled kernels, parallel row blocks.
};

/** Process-wide backend (TWOINONE_BACKEND, read once, overridable). */
Backend activeBackend();

/** Override the backend (benches/tests; not thread-safe vs running kernels). */
void setActiveBackend(Backend b);

/** Human-readable backend name ("naive" / "blocked"). */
const char *backendName(Backend b);

/**
 * C[m,n] = op(A) * op(B) (+ C when @p accumulate) (+ row bias).
 *
 * Row-major storage everywhere.
 *  - trans_a == false: A is [m,k] with leading dimension @p lda.
 *    trans_a == true:  A is stored [k,m] (lda >= m) and used as A^T.
 *  - trans_b == false: B is [k,n] with leading dimension @p ldb.
 *    trans_b == true:  B is stored [n,k] (ldb >= k) and used as B^T.
 *  - C is [m,n] with leading dimension @p ldc.
 *
 * When @p accumulate is false, C is overwritten; when true, the
 * product is added to the existing C. @p row_bias, when non-null,
 * points at m floats and row_bias[i] is added to every element of row
 * i exactly once — only legal with accumulate == false (the Conv2d
 * fused bias epilogue).
 *
 * Dispatches to the active backend.
 */
void sgemm(bool trans_a, bool trans_b, int m, int n, int k, const float *a,
           int lda, const float *b, int ldb, float *c, int ldc,
           bool accumulate = false, const float *row_bias = nullptr);

/** Explicit-backend variant of sgemm (benchmark harness). */
void sgemm(Backend backend, bool trans_a, bool trans_b, int m, int n, int k,
           const float *a, int lda, const float *b, int ldb, float *c,
           int ldc, bool accumulate = false,
           const float *row_bias = nullptr);

/**
 * True when a small product (m*n*k at or below the blocked path's
 * packing cutoff) dispatches to the light row-parallel naive path
 * instead of the serial reference loops — decided by the same grain
 * rule sgemm uses, so benches can report which path a shape takes.
 */
bool smallGemmRunsParallel(int m, int n, int k);

/** @name Unpacked integer GEMM (the reference rows)
 *
 * C[m,n] = A[m,k] * B[n,k]^T over integer grid codes, unpacked: the
 * plain reference the packed kernels below are tested and benchmarked
 * against. Conv2d and Linear run the packed kernels only. The
 * operands are narrow codes: signed weights (int8/int16) against
 * unsigned activations (uint8/uint16), plus a wide int32 x int32
 * variant for post-quantization integer tensors whose codes have
 * outgrown 16 bits (e.g. average-pool partial sums). The output is
 * always int64.
 *
 * Accumulation runs in int32 whenever the worst-case magnitude bound
 * qmax_w * qmax_a * k fits, and falls back to int64 otherwise — both
 * exact, so results are bit-identical regardless. Rows of C are
 * computed thread-pool-parallel above a work grain;
 * TWOINONE_BACKEND=naive forces the serial reference loops. Integer
 * addition is associative, so every path agrees bit-for-bit.
 */
/** @{ */
void igemmTransB(int m, int n, int k, const int8_t *a, int lda,
                 const uint8_t *b, int ldb, int64_t *c, int ldc,
                 int w_bits, int a_bits);
void igemmTransB(int m, int n, int k, const int16_t *a, int lda,
                 const uint16_t *b, int ldb, int64_t *c, int ldc,
                 int w_bits, int a_bits);
void igemmTransB(int m, int n, int k, const int32_t *a, int lda,
                 const int32_t *b, int ldb, int64_t *c, int ldc);
/** @} */

/** @name Packed integer GEMM (tile-ordered weights + SIMD dispatch)
 *
 * The integer datapath of Conv2d and Linear: weight codes are
 * packed once per (layer, precision) into tile-ordered, cache-resident
 * buffers (PackedIntWeights) and the per-forward GEMM runs a
 * register-tiled microkernel selected once per process from the CPU's
 * capabilities (IsaTier): AVX-512/VNNI `vpdpbusd`/`vpdpwssd` when
 * available, AVX2 `maddubs`/`madd` otherwise, plain packed loops on
 * any CPU (the scalar tier). TWOINONE_ISA picks the tier;
 * TWOINONE_BACKEND=naive only makes it run serially. Every tier
 * accumulates exactly (int32 windows sized so no partial sum can
 * overflow, spilled to int64), so all tiers and the unpacked
 * igemmTransB reference are bit-identical at every bit width — the
 * determinism contract the scalar-vs-SIMD CI gate enforces.
 */
/** @{ */

/** SIMD tier of the packed integer kernels. Ordered: a tier implies
 * every lower one. */
enum class IsaTier {
    Scalar = 0,     ///< Packed reference loops, any CPU.
    Avx2 = 1,       ///< 256-bit maddubs/madd microkernels.
    Avx512Vnni = 2, ///< 512-bit vpdpbusd/vpdpwssd microkernels.
};

/** The tier the running CPU supports (cpuid, detected once). */
IsaTier detectedIsaTier();

/** Process-wide tier the packed kernels dispatch to: the detected
 * tier, unless lowered by TWOINONE_ISA (= "scalar" / "avx2" /
 * "avx512vnni"; read once) or setActiveIsaTier(). Requests above the
 * detected tier clamp down with a warning. */
IsaTier activeIsaTier();

/** Override the dispatch tier (benches/tests; clamped to the detected
 * tier; not thread-safe vs running kernels). */
void setActiveIsaTier(IsaTier t);

/** Human-readable tier name ("scalar" / "avx2" / "avx512vnni"). */
const char *isaTierName(IsaTier t);

/** Rows per packed tile: one AVX-512 int32 accumulator of output
 * channels; AVX2 processes a tile as two 8-channel halves. */
constexpr int kPackTileM = 16;

/**
 * Weight codes packed for the microkernels: rows (output channels) in
 * tiles of kPackTileM, the reduction dimension in groups of 4 (int8
 * pairs-of-pairs for vpdpbusd/maddubs, bits <= 8 only) and of 2
 * (int16 pairs for madd/vpdpwssd, all bit widths), zero-padded to full
 * tiles/groups so the kernels never branch on ragged edges. rowSum
 * holds each row's code sum — the exact correction term the 16-bit
 * activation path's bias trick adds back (a_u16 = (a ^ 0x8000) +
 * 32768).
 */
struct PackedIntWeights
{
    int m = 0;    ///< Output rows (channels).
    int k = 0;    ///< Reduction length.
    int bits = 0; ///< Weight-code precision packed at.
    int tiles = 0;
    int groups8 = 0;  ///< ceil(k / 4); p8 is empty when bits > 8.
    int groups16 = 0; ///< ceil(k / 2).
    /** [tile][group8][kPackTileM][4] signed codes. */
    std::vector<int8_t> p8;
    /** [tile][group16][kPackTileM][2] signed codes. */
    std::vector<int16_t> p16;
    /** Per-row code sums over the real k (pads excluded). */
    std::vector<int64_t> rowSum;

    bool empty() const { return m == 0; }
    size_t bytes() const
    {
        return p8.size() * sizeof(int8_t) + p16.size() * sizeof(int16_t) +
               rowSum.size() * sizeof(int64_t);
    }
    void clear()
    {
        *this = PackedIntWeights();
    }
};

/**
 * Pack @p m x @p k row-major weight codes (int32 grid codes of
 * @p w_bits precision) into @p out. Deterministic: repacking identical
 * codes reproduces an identical buffer.
 */
void packWeights(const int32_t *codes, int m, int k, int w_bits,
                 PackedIntWeights &out);

/**
 * C[w.m, n] = packed(W) * B[n, k]^T — the packed counterpart of the
 * narrow igemmTransB overloads, bit-identical to them (exact integer
 * accumulation in every tier). The uint8_t overload needs w.bits <= 8
 * and a_bits <= 8; the uint16_t overload serves every width up to 16.
 * Columns of C parallelize over the thread pool above a work grain
 * (serial under TWOINONE_BACKEND=naive), like igemmTransB's rows.
 */
void igemmPackedTransB(const PackedIntWeights &w, int n, const uint8_t *b,
                       int ldb, int64_t *c, int ldc, int a_bits);
void igemmPackedTransB(const PackedIntWeights &w, int n, const uint16_t *b,
                       int ldb, int64_t *c, int ldc, int a_bits);

/**
 * C[n, w.m] = A[n, k] * packed(W)^T over *wide* unsigned activation
 * codes (int32 storage, up to 30 bits — the classifier head behind
 * GlobalAvgPool, whose codes outgrow 16 bits): each activation splits
 * into a low-15-bit and a high part staged through @p stage, and two
 * packed int16 passes recombine exactly in int64 — bit-identical to
 * the wide int32 igemmTransB reference. Note the transposed output
 * layout (C is [n, m], the Linear accumulator layout).
 */
void igemmPackedWideTransA(const PackedIntWeights &w, int n,
                           const int32_t *a, int lda, int64_t *c, int ldc,
                           int a_bits, std::vector<uint16_t> &stage);

/** @} */

} // namespace gemm
} // namespace twoinone

#endif // TWOINONE_TENSOR_GEMM_HH
