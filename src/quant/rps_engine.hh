/**
 * @file
 * RpsEngine: the precision-switchable inference engine behind RPS
 * serving (paper Alg. 1, RPS inference).
 *
 * The cache is int-code-first: for every (weight layer, candidate
 * precision) pair the engine stores the canonical QuantTensor —
 * integer grid codes + scale — plus the STE mask, built in one
 * quantization pass over the masters (parallel across layers x
 * precisions on the global thread pool). The float fake-quant view
 * that the float forward consumes is *materialized lazily* from the
 * codes, on the first switch to that precision: value[i] =
 * float(code[i]) * scale, which is bit-identical to what
 * fakeQuantSymmetric would produce, so the cached float forward is
 * bit-identical to the uncached re-quantizing path. The same codes
 * feed the integer forward (Network::forwardQuantized) and the
 * bit-serial datapath simulator (accel/array_sim) directly — one
 * switch installs both representations with zero re-quantization.
 *
 * A precision switch is O(#layers): pointer installs of the float
 * entry and the codes into each layer. Entries live in stable
 * storage; refresh() rewrites them in place, so installed pointers
 * remain valid across refreshes.
 *
 * Staleness is tracked per (layer, precision) cell: every cell
 * remembers the master-weight version (Parameter::version) it was
 * quantized from, and setPrecision() re-quantizes exactly the cells
 * it is about to install whose version fell behind — so a training
 * step pays for the installed precision column per dirty layer
 * instead of all |set| of them. refreshDirty() is the per-step hook
 * the trainer calls after each optimizer step: it notes which layers
 * moved (returning how many were newly dirty) and brings the
 * *currently installed* column current — forwards may consume it
 * before any switch (Free training replays several steps per draw) —
 * while every other column rebuilds lazily at its next install.
 *
 * The engine caches *weights only*; activations are quantized per
 * forward — dynamically by default, or against calibrated static
 * scales (quant/calibration.hh), which makes the cached forward fully
 * quantization-free. Master weights must not change while caches are
 * installed — call refresh()/refreshDirty() after any training step
 * before inferring again. Layers that ran a cached forward keep a
 * pointer into the entry for their backward STE mask, so keep the
 * engine alive until the backward passes that depend on a cached
 * forward have run.
 */

#ifndef TWOINONE_QUANT_RPS_ENGINE_HH
#define TWOINONE_QUANT_RPS_ENGINE_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "nn/network.hh"
#include "quant/quant_tensor.hh"
#include "tensor/gemm.hh"

namespace twoinone {

/**
 * Byte-budget policy for the engine's weight cache. With a budget,
 * the cache behaves as an LRU over (layer, precision) cells: after
 * each install/import the least-recently-used evictable cells are
 * dropped until cacheBytes() <= budgetBytes. The currently installed
 * precision column and any pinned precisions are never evicted, so a
 * budget can at most strip the cache down to installed + pinned —
 * forwards stay bit-identical at every candidate, because an evicted
 * cell transparently rehydrates (from a streaming artifact) or
 * re-quantizes from the master weights on its next install, both of
 * which reproduce the evicted codes exactly.
 */
struct EngineCacheConfig
{
    /** Cache byte ceiling (0 = unlimited; the pre-budget behavior). */
    size_t budgetBytes = 0;
    /** Precisions whose cells are never evicted (must be members of
     * the cached set) — e.g. the serving fleet's hottest widths. */
    std::vector<int> pinnedBits;
};

/**
 * Per-precision quantized-weight cache + switch/forward façade over a
 * Network. Non-copyable; detaches its caches on destruction.
 */
class RpsEngine
{
  public:
    /**
     * Build the cache for @p net's full bound PrecisionSet (which
     * must be non-empty); the network's active precision is left
     * untouched.
     */
    explicit RpsEngine(Network &net);

    /**
     * Build the cache for @p cache_set only — a non-empty subset of
     * the network's bound set. Evaluations that sample from a
     * restricted set (e.g. Fig. 11 variants) avoid quantizing and
     * holding candidates they never draw. Switching to a bound-set
     * precision outside @p cache_set still works, on the uncached
     * re-quantization path.
     */
    RpsEngine(Network &net, PrecisionSet cache_set);

    /** Tag selecting the deferred-build constructor. */
    struct DeferBuild
    {
    };

    /**
     * Construct with an *empty* cache: no quantization pass runs.
     * Cells are expected to arrive from a checkpoint — imported
     * up front through importCell(), or hydrated on first install
     * through a CellHydrator; any cell that never arrives rebuilds
     * lazily on its first install, so a partial warm start degrades
     * gracefully to the ordinary lazy path.
     */
    RpsEngine(Network &net, PrecisionSet cache_set, DeferBuild);

    ~RpsEngine();

    RpsEngine(const RpsEngine &) = delete;
    RpsEngine &operator=(const RpsEngine &) = delete;

    /** The cached candidate set. */
    const PrecisionSet &set() const { return cacheSet_; }

    /** Number of weight-quantizing layers under cache. */
    size_t numQuantLayers() const { return layers_.size(); }

    /** Total bytes held by the cache: int codes + STE masks + any
     * materialized float views + any tile-packed kernel buffers. */
    size_t cacheBytes() const;

    /**
     * Install a byte-budget policy (see EngineCacheConfig). Applies
     * immediately: over-budget cells are evicted LRU-first before the
     * call returns, and every subsequent install/import re-enforces
     * the ceiling. Pinned precisions must be members of the cached
     * set. A default-constructed config restores unlimited caching.
     */
    void setCacheConfig(EngineCacheConfig cfg);

    /** The installed budget policy. */
    const EngineCacheConfig &cacheConfig() const { return cacheCfg_; }

    /** One persisted cache cell, as the checkpoint decoder produces
     * it for importCell() or a CellHydrator: the canonical codes +
     * STE mask, and the tile pack when the artifact carries packs. */
    struct HydratedCell
    {
        QuantTensor codes;
        Tensor steMask;
        gemm::PackedIntWeights packed;
        bool hasPack = false;
    };

    /**
     * Source of truth for absent cells, consulted before the engine
     * falls back to re-quantizing from the master weights: a lazy
     * checkpoint restore installs one that decodes the cell's
     * sections from disk. Returns false on any failure (missing
     * section, corruption) — the engine then rebuilds the cell, which
     * is bit-identical to the persisted codes. A hydrated cell lands
     * through the same checks as importCell(). Called concurrently
     * from the install pass, so it must be thread-safe; it is only
     * consulted while a layer's master weights still match their
     * state at hydrator installation (training invalidates the
     * artifact's cells, so moved layers rebuild instead).
     */
    using CellHydrator =
        std::function<bool(size_t layer, int bits, HydratedCell &out)>;

    /** Install @p hydrator (empty = none), snapshotting the current
     * master-weight versions it is valid against. */
    void setCellHydrator(CellHydrator hydrator);

    /** Whether the (layer, bits) cell is currently resident (built
     * and not evicted) — eviction-test observability. */
    bool cellResident(size_t layer, int bits) const;

    /** Cells dropped by the byte-budget policy since construction. */
    uint64_t cacheEvictions() const;

    /** Cells filled from the hydrator (streaming artifact) instead of
     * a quantization pass since construction. */
    uint64_t cellHydrations() const;

    /**
     * Re-quantize every cache entry from the current master weights
     * (parallel across layers x precisions). Installed pointers stay
     * valid; materialized float views are dropped and rebuilt on the
     * next switch. Call after weight updates.
     */
    void refresh();

    /**
     * Note the layers whose master-weight version
     * (Parameter::version) moved since they were last noted, and
     * re-quantize the currently installed column's stale cells so the
     * caches in active use are never stale — the per-step hook for
     * cached adversarial training. All other precision columns
     * rebuild lazily when setPrecision() next installs them, cutting
     * per-step quantization work from |set| columns to the one(s)
     * actually consumed. Layers mutated without a version bump are
     * NOT picked up; use refresh() for out-of-band weight surgery.
     *
     * @return The number of layers newly observed dirty (0 on a
     *         repeat call with no intervening update).
     */
    size_t refreshDirty();

    /**
     * Switch the active precision: install the cached float entries
     * and integer codes for @p bits (or clear them for 0 = full
     * precision) and propagate the quant state through the network.
     * O(#layers) plus, per installed cell, a re-quantization when its
     * master weights moved since it was built (the lazy column
     * rebuild) or a code-to-float materialization on its first use.
     * A bound-set precision outside the cached set switches uncached.
     */
    void setPrecision(int bits);

    /** The network's currently active precision (0 = full). */
    int activePrecision() const { return net_.activePrecision(); }

    /** The network this engine's cache is built on. */
    Network &network() const { return net_; }

    /** Switch to @p bits and run an inference forward pass. */
    Tensor forwardAt(int bits, const Tensor &x);

    /** Switch to @p bits and run the integer-datapath forward. */
    Tensor forwardQuantizedAt(int bits, const Tensor &x);

    /** Switch to @p bits and return per-row argmax predictions. */
    std::vector<int> predictAt(int bits, const Tensor &x);

    /** Draw a candidate precision uniformly (Alg. 1 line 16). */
    int samplePrecision(Rng &rng) const { return set().sample(rng); }

    /** Random-precision inference: sample a candidate, switch, run.
     * The drawn precision is reported through @p bits_out. */
    Tensor forwardRandom(const Tensor &x, Rng &rng, int *bits_out = nullptr);

    /**
     * Clear the installed cache pointers from all layers, returning
     * them to the uncached re-quantization path. The network keeps
     * its active precision. The cache itself is retained:
     * setPrecision re-installs it.
     */
    void detach();

    /** The cached integer codes of layer @p layer at @p bits
     * (test/simulator access; panics when not cached). Rebuilds the
     * cell first when the master weights moved since it was built. */
    const QuantTensor &codesFor(size_t layer, int bits);

    /** The cached STE mask of layer @p layer at @p bits (checkpoint
     * writer access; same lazy-rebuild contract as codesFor). */
    const Tensor &steMaskFor(size_t layer, int bits);

    /**
     * Install one persisted cache cell (checkpoint warm start): the
     * canonical codes plus the STE mask, both quantized from the
     * layer's *current* master weights by the producer, and the tile
     * pack when @p cell carries one (then packBuilds() stays 0 for
     * the cell). The cell is marked built at the layer's current
     * weight version; the float view stays lazy. Returns false and
     * leaves the cache untouched when the cell does not fit the layer
     * and precision (bits, size, mask or pack geometry).
     */
    bool importCell(size_t layer, size_t prec, HydratedCell cell);

    /** The tile-packed kernel weights of layer @p layer at @p bits
     * (checkpoint writer access; brings a stale cell current and
     * packs it on first demand). */
    const gemm::PackedIntWeights &packedFor(size_t layer, int bits);

    /** Cells re-quantized since construction (lazy-rebuild
     * accounting: a full refresh counts #layers x |set|, an install
     * of a stale column counts one per dirty layer). */
    uint64_t columnRebuilds() const;

    /** Tile packs built (or rebuilt) since construction. A warm start
     * that imported packs serves every cached precision without one
     * (the pack-persist counterpart of columnRebuilds()). */
    uint64_t packBuilds() const;

    /** @name Cache accounting
     * Quantized-weight lookups across all cached layers since the
     * last reset: hits used an installed entry, misses re-quantized
     * the masters (e.g. EPGD switching precisions behind the
     * engine's back). */
    /** @{ */
    uint64_t cacheHits() const;
    uint64_t cacheMisses() const;
    void resetCacheStats();
    /** @} */

  private:
    /** One (layer, precision) cache cell: canonical codes plus the
     * lazily materialized float fake-quant view and the lazily built
     * tile-packed kernel weights, stamped with the master-weight
     * version it was quantized from. */
    struct CacheEntry
    {
        QuantTensor codes;
        QuantResult floats; ///< steMask eager, values lazy
        /** Tile-ordered codes for the packed integer kernels
         * (gemm::igemmPackedTransB*), built on the cell's first
         * install and then kept current by rebuilds — a precision
         * switch installs ready-to-run kernel weights, and the
         * per-forward repack disappears from the serving path. */
        gemm::PackedIntWeights packed;
        bool packedReady = false;
        bool floatsReady = false;
        bool built = false;
        uint64_t builtVersion = 0;
        /** Logical clock of the cell's last install/access — the LRU
         * key the byte-budget eviction orders by. */
        uint64_t lastUse = 0;
    };

    Network &net_;
    PrecisionSet cacheSet_;
    std::vector<WeightQuantizedLayer *> layers_;
    /** cache_[layer][precision index in cacheSet_]. */
    std::vector<std::vector<CacheEntry>> cache_;
    /** Master-weight version refreshDirty() last noted per layer. */
    std::vector<uint64_t> notedVersion_;
    /** Precision column currently installed into the layers (-1 when
     * detached / uncached) — the one column refreshDirty() keeps
     * eagerly current. */
    int installedIdx_ = -1;
    /** Cells quantized so far (see columnRebuilds()). */
    std::atomic<uint64_t> columnRebuilds_{0};
    /** Tile packs built so far (see packBuilds()). */
    std::atomic<uint64_t> packBuilds_{0};
    /** Byte-budget policy (budgetBytes 0 = unlimited). */
    EngineCacheConfig cacheCfg_;
    /** pinnedIdx_[prec]: that cached precision is never evicted. */
    std::vector<bool> pinnedIdx_;
    /** Lazy cell source (empty = rebuild-only), and the per-layer
     * master-weight versions it was installed against. */
    CellHydrator hydrator_;
    std::vector<uint64_t> hydratorVersion_;
    /** LRU clock; advanced only from serial sections (install loop,
     * accessors) — never inside a parallelFor body. */
    uint64_t useTick_ = 0;
    /** Cells evicted so far (see cacheEvictions()). */
    std::atomic<uint64_t> cacheEvictions_{0};
    /** Cells hydrated so far (see cellHydrations()). */
    std::atomic<uint64_t> cellHydrations_{0};

    /** Whether the cell's codes predate the layer's current master
     * weights. */
    bool cellStale(size_t layer, size_t prec) const;

    /** Re-quantize one cell from the current masters, fusing the
     * float-view materialization when the view is (or must become)
     * live; a live tile pack is repacked from the fresh codes so
     * installed pack pointers stay current. */
    void rebuildCell(size_t layer, size_t prec, bool want_floats);

    /** (Re)build a cell's tile-packed kernel weights from its codes. */
    void packEntry(CacheEntry &e);

    /** Bytes one cell currently holds (the cacheBytes() summand). */
    static size_t cellBytes(const CacheEntry &e);

    /** The one landing body of importCell() and tryHydrate(): move
     * @p h into the cell when it fits the layer and precision, else
     * return false with the cache untouched. No budget enforcement;
     * thread-safe for disjoint cells. */
    bool landCell(size_t layer, size_t prec, HydratedCell &&h);

    /** Try to fill an absent cell from the hydrator. Thread-safe for
     * disjoint cells (each parallelFor worker owns its cell). */
    bool tryHydrate(size_t layer, size_t prec);

    /** Make the cell current: hydrate when absent and the hydrator
     * is still valid for the layer, else re-quantize when stale. */
    void ensureCell(size_t layer, size_t prec, bool want_floats);

    /** Drop LRU evictable cells until cacheBytes() fits the budget
     * (no-op without one). Serial sections only. */
    void evictToBudget();

    /** Rebuild all cached precisions of the given layers (parallel
     * over layers x precisions; float views of used precisions are
     * rebuilt fused, never-used views stay lazy). */
    void rebuildLayers(const std::vector<size_t> &which);
};

} // namespace twoinone

#endif // TWOINONE_QUANT_RPS_ENGINE_HH
