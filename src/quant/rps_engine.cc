/**
 * @file
 * RpsEngine implementation.
 */

#include "quant/rps_engine.hh"

#include "common/thread_pool.hh"

namespace twoinone {

RpsEngine::RpsEngine(Network &net) : RpsEngine(net, net.precisionSet())
{
}

RpsEngine::RpsEngine(Network &net, PrecisionSet cache_set)
    : RpsEngine(net, std::move(cache_set), DeferBuild{})
{
    refresh();
}

RpsEngine::RpsEngine(Network &net, PrecisionSet cache_set, DeferBuild)
    : net_(net), cacheSet_(std::move(cache_set)),
      layers_(net.weightQuantizedLayers())
{
    TWOINONE_ASSERT(!cacheSet_.empty(),
                    "RpsEngine needs a non-empty precision set");
    for (int bits : cacheSet_.bits()) {
        TWOINONE_ASSERT(net_.precisionSet().contains(bits),
                        "cache precision ", bits,
                        " not in the network's bound set ",
                        net_.precisionSet().name());
    }
    cache_.resize(layers_.size());
    for (auto &per_layer : cache_)
        per_layer.resize(cacheSet_.size());
    notedVersion_.assign(layers_.size(), 0);
    pinnedIdx_.assign(cacheSet_.size(), false);
}

RpsEngine::~RpsEngine()
{
    detach();
}

bool
RpsEngine::cellStale(size_t layer, size_t prec) const
{
    const CacheEntry &e = cache_[layer][prec];
    return !e.built ||
           e.builtVersion != layers_[layer]->masterWeightVersion();
}

bool
RpsEngine::landCell(size_t layer, size_t prec, HydratedCell &&h)
{
    // A decodable cell that does not fit this layer and precision
    // (wrong bits, size, mask or pack geometry) is refused whole.
    const int m = h.codes.shape.empty() ? 0 : h.codes.shape[0];
    const int k = m > 0 ? static_cast<int>(h.codes.size()) / m : 0;
    if (h.codes.bits != cacheSet_.bits()[prec] ||
        h.codes.size() != layers_[layer]->masterWeight().size() ||
        h.steMask.size() != h.codes.size() ||
        (h.hasPack && (h.packed.m != m || h.packed.k != k ||
                       h.packed.bits != h.codes.bits)))
        return false;
    CacheEntry &e = cache_[layer][prec];
    e.codes = std::move(h.codes);
    e.floats.steMask = std::move(h.steMask);
    e.floats.values = Tensor();
    e.floats.scale = e.codes.scale;
    e.floats.bits = e.codes.bits;
    e.floatsReady = false;
    if (h.hasPack) {
        e.packed = std::move(h.packed);
        e.packedReady = true;
    } else if (e.packedReady) {
        packEntry(e); // keep a live tile pack current
    }
    e.built = true;
    e.builtVersion = layers_[layer]->masterWeightVersion();
    return true;
}

bool
RpsEngine::tryHydrate(size_t layer, size_t prec)
{
    if (!hydrator_)
        return false;
    // The artifact's cells were quantized from the masters as saved;
    // once a layer trains past that version its persisted codes are
    // wrong — rebuild instead.
    if (layers_[layer]->masterWeightVersion() !=
        hydratorVersion_[layer])
        return false;
    HydratedCell h;
    if (!hydrator_(layer, cacheSet_.bits()[prec], h) ||
        !landCell(layer, prec, std::move(h)))
        return false;
    cellHydrations_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
RpsEngine::ensureCell(size_t layer, size_t prec, bool want_floats)
{
    CacheEntry &e = cache_[layer][prec];
    if (!e.built)
        tryHydrate(layer, prec);
    if (cellStale(layer, prec))
        rebuildCell(layer, prec, want_floats);
}

void
RpsEngine::packEntry(CacheEntry &e)
{
    // Weight codes are row-major [rows, reduction] for both kernel
    // geometries: Conv2d [K, C*k*k] and Linear [out, in].
    const int m = e.codes.shape.empty() ? 0 : e.codes.shape[0];
    const int k =
        m > 0 ? static_cast<int>(e.codes.size()) / m : 0;
    gemm::packWeights(e.codes.codes.data(), m, k, e.codes.bits, e.packed);
    e.packedReady = true;
    packBuilds_.fetch_add(1, std::memory_order_relaxed);
}

void
RpsEngine::rebuildCell(size_t layer, size_t prec, bool want_floats)
{
    CacheEntry &e = cache_[layer][prec];
    // A live (or demanded) float view is rebuilt in the same fused
    // pass so installed pointers stay valid AND current; never-used
    // views stay lazy.
    bool floats = want_floats || e.floatsReady;
    QuantTensor::quantizeSymmetricInto(
        layers_[layer]->masterWeight(), cacheSet_.bits()[prec], e.codes,
        &e.floats.steMask, floats ? &e.floats.values : nullptr);
    e.floats.scale = e.codes.scale;
    e.floats.bits = e.codes.bits;
    e.floatsReady = floats;
    if (e.packedReady)
        packEntry(e); // keep installed pack pointers current
    e.built = true;
    e.builtVersion = layers_[layer]->masterWeightVersion();
    columnRebuilds_.fetch_add(1, std::memory_order_relaxed);
}

void
RpsEngine::rebuildLayers(const std::vector<size_t> &which)
{
    const int64_t nprec = static_cast<int64_t>(cacheSet_.size());
    // (layer, precision) pairs are independent; grain 1 gives
    // deterministic fixed chunking, and the quantization passes inside
    // run inline (nested parallelFor), so each entry is bit-identical
    // to a serially built one.
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(which.size()) * nprec, 1,
        [&](int64_t lo, int64_t hi) {
            for (int64_t t = lo; t < hi; ++t) {
                size_t l = which[static_cast<size_t>(t / nprec)];
                size_t p = static_cast<size_t>(t % nprec);
                rebuildCell(l, p, /*want_floats=*/false);
            }
        });
    for (size_t l : which)
        notedVersion_[l] = layers_[l]->masterWeightVersion();
}

void
RpsEngine::refresh()
{
    std::vector<size_t> all(layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l)
        all[l] = l;
    rebuildLayers(all);
    evictToBudget();
}

size_t
RpsEngine::refreshDirty()
{
    // Note which layers moved; their cells rebuild lazily when
    // setPrecision next installs a column — except the column that is
    // installed RIGHT NOW, which forwards may consume before any
    // switch (e.g. Free training replays several optimizer steps per
    // precision draw), so it is brought current here.
    size_t noted = 0;
    for (size_t l = 0; l < layers_.size(); ++l) {
        uint64_t v = layers_[l]->masterWeightVersion();
        if (v != notedVersion_[l]) {
            notedVersion_[l] = v;
            ++noted;
        }
    }
    if (noted > 0 && installedIdx_ >= 0) {
        size_t idx = static_cast<size_t>(installedIdx_);
        ThreadPool::global().parallelFor(
            0, static_cast<int64_t>(layers_.size()), 1,
            [&](int64_t lo, int64_t hi) {
                for (int64_t l = lo; l < hi; ++l) {
                    size_t ls = static_cast<size_t>(l);
                    if (cellStale(ls, idx))
                        rebuildCell(ls, idx, /*want_floats=*/true);
                }
            });
    }
    return noted;
}

void
RpsEngine::setPrecision(int bits)
{
    if (bits == 0 || !cacheSet_.contains(bits)) {
        // Full precision, or a bound-set precision the engine was not
        // asked to cache: run uncached.
        for (WeightQuantizedLayer *l : layers_) {
            l->setWeightCache(nullptr);
            l->setWeightCodes(nullptr);
            l->setWeightPacked(nullptr);
        }
        installedIdx_ = -1;
        net_.setPrecision(bits);
        return;
    }
    size_t idx = static_cast<size_t>(cacheSet_.indexOf(bits));
    // A column whose every cell is current, float-materialized and
    // packed installs without waking the pool: the serial scan is the
    // whole cost of a cached switch.
    bool ready = true;
    for (size_t l = 0; l < layers_.size() && ready; ++l) {
        const CacheEntry &e = cache_[l][idx];
        ready = e.floatsReady && e.packedReady && !cellStale(l, idx);
    }
    // Otherwise bring the column current: hydrate absent cells from
    // the artifact when a hydrator is attached, re-quantize cells
    // whose master weights moved (the lazy column rebuild — only the
    // column being consumed pays), and materialize float views on
    // first use (codes are the source of truth; float(code) * scale
    // is exactly the fake-quant grid value).
    if (!ready)
        ThreadPool::global().parallelFor(
            0, static_cast<int64_t>(layers_.size()), 1,
            [&](int64_t lo, int64_t hi) {
                for (int64_t l = lo; l < hi; ++l) {
                    size_t ls = static_cast<size_t>(l);
                    CacheEntry &e = cache_[ls][idx];
                    ensureCell(ls, idx, /*want_floats=*/true);
                    if (!e.floatsReady) {
                        e.codes.dequantizeInto(e.floats.values);
                        e.floatsReady = true;
                    }
                    // First install of this cell: build the tile-packed
                    // kernel weights (rebuilds keep them current after
                    // this). Packing is a data-layout copy, not a
                    // quantization, so it does not count as a column
                    // rebuild — checkpoint warm starts stay at zero.
                    if (!e.packedReady)
                        packEntry(e);
                }
            });
    const uint64_t tick = ++useTick_;
    for (size_t l = 0; l < layers_.size(); ++l) {
        cache_[l][idx].lastUse = tick;
        layers_[l]->setWeightCache(&cache_[l][idx].floats);
        layers_[l]->setWeightCodes(&cache_[l][idx].codes);
        layers_[l]->setWeightPacked(&cache_[l][idx].packed);
    }
    installedIdx_ = static_cast<int>(idx);
    net_.setPrecision(bits);
    // The install may have materialized a whole column — re-enforce
    // the byte ceiling now that the column is protected.
    evictToBudget();
}

Tensor
RpsEngine::forwardAt(int bits, const Tensor &x)
{
    setPrecision(bits);
    return net_.forward(x, /*train=*/false);
}

Tensor
RpsEngine::forwardQuantizedAt(int bits, const Tensor &x)
{
    setPrecision(bits);
    return net_.forwardQuantized(x);
}

std::vector<int>
RpsEngine::predictAt(int bits, const Tensor &x)
{
    setPrecision(bits);
    return net_.predict(x);
}

Tensor
RpsEngine::forwardRandom(const Tensor &x, Rng &rng, int *bits_out)
{
    int bits = samplePrecision(rng);
    if (bits_out)
        *bits_out = bits;
    return forwardAt(bits, x);
}

void
RpsEngine::detach()
{
    for (WeightQuantizedLayer *l : layers_) {
        l->setWeightCache(nullptr);
        l->setWeightCodes(nullptr);
        l->setWeightPacked(nullptr);
    }
    installedIdx_ = -1;
}

const QuantTensor &
RpsEngine::codesFor(size_t layer, int bits)
{
    TWOINONE_ASSERT(layer < cache_.size(), "layer index out of range");
    TWOINONE_ASSERT(cacheSet_.contains(bits), "precision ", bits,
                    " not cached");
    size_t p = static_cast<size_t>(cacheSet_.indexOf(bits));
    ensureCell(layer, p, /*want_floats=*/false);
    cache_[layer][p].lastUse = ++useTick_;
    return cache_[layer][p].codes;
}

const Tensor &
RpsEngine::steMaskFor(size_t layer, int bits)
{
    TWOINONE_ASSERT(layer < cache_.size(), "layer index out of range");
    TWOINONE_ASSERT(cacheSet_.contains(bits), "precision ", bits,
                    " not cached");
    size_t p = static_cast<size_t>(cacheSet_.indexOf(bits));
    ensureCell(layer, p, /*want_floats=*/false);
    cache_[layer][p].lastUse = ++useTick_;
    return cache_[layer][p].floats.steMask;
}

bool
RpsEngine::importCell(size_t layer, size_t prec, HydratedCell cell)
{
    TWOINONE_ASSERT(layer < cache_.size() && prec < cacheSet_.size(),
                    "cache cell out of range");
    if (!landCell(layer, prec, std::move(cell)))
        return false;
    cache_[layer][prec].lastUse = ++useTick_;
    evictToBudget();
    return true;
}

const gemm::PackedIntWeights &
RpsEngine::packedFor(size_t layer, int bits)
{
    TWOINONE_ASSERT(layer < cache_.size(), "layer index out of range");
    TWOINONE_ASSERT(cacheSet_.contains(bits), "precision ", bits,
                    " not cached");
    size_t p = static_cast<size_t>(cacheSet_.indexOf(bits));
    ensureCell(layer, p, /*want_floats=*/false);
    CacheEntry &e = cache_[layer][p];
    e.lastUse = ++useTick_;
    if (!e.packedReady)
        packEntry(e);
    return e.packed;
}

uint64_t
RpsEngine::columnRebuilds() const
{
    return columnRebuilds_.load(std::memory_order_relaxed);
}

uint64_t
RpsEngine::packBuilds() const
{
    return packBuilds_.load(std::memory_order_relaxed);
}

uint64_t
RpsEngine::cacheHits() const
{
    uint64_t total = 0;
    for (WeightQuantizedLayer *l : layers_)
        total += l->cacheHits();
    return total;
}

uint64_t
RpsEngine::cacheMisses() const
{
    uint64_t total = 0;
    for (WeightQuantizedLayer *l : layers_)
        total += l->cacheMisses();
    return total;
}

void
RpsEngine::resetCacheStats()
{
    for (WeightQuantizedLayer *l : layers_)
        l->resetCacheStats();
}

size_t
RpsEngine::cellBytes(const CacheEntry &e)
{
    size_t bytes = e.codes.bytes();
    bytes += e.floats.steMask.size() * sizeof(float);
    if (e.floatsReady)
        bytes += e.floats.values.size() * sizeof(float);
    bytes += e.packed.bytes();
    return bytes;
}

size_t
RpsEngine::cacheBytes() const
{
    size_t bytes = 0;
    for (const auto &per_layer : cache_)
        for (const CacheEntry &e : per_layer)
            bytes += cellBytes(e);
    return bytes;
}

void
RpsEngine::setCacheConfig(EngineCacheConfig cfg)
{
    pinnedIdx_.assign(cacheSet_.size(), false);
    for (int b : cfg.pinnedBits) {
        TWOINONE_ASSERT(cacheSet_.contains(b), "pinned precision ", b,
                        " not in the cached set ", cacheSet_.name());
        pinnedIdx_[static_cast<size_t>(cacheSet_.indexOf(b))] = true;
    }
    cacheCfg_ = std::move(cfg);
    evictToBudget();
}

void
RpsEngine::setCellHydrator(CellHydrator hydrator)
{
    hydrator_ = std::move(hydrator);
    hydratorVersion_.resize(layers_.size());
    for (size_t l = 0; l < layers_.size(); ++l)
        hydratorVersion_[l] = layers_[l]->masterWeightVersion();
}

void
RpsEngine::evictToBudget()
{
    if (cacheCfg_.budgetBytes == 0)
        return;
    size_t total = cacheBytes();
    while (total > cacheCfg_.budgetBytes) {
        // LRU victim among the evictable cells: never the installed
        // column (layers hold live pointers into it) and never a
        // pinned precision. When only protected bytes remain the
        // budget is infeasible — stop rather than break serving; the
        // budget is a ceiling on *idle* cells, not on the working set.
        CacheEntry *victim = nullptr;
        for (auto &per_layer : cache_) {
            for (size_t p = 0; p < per_layer.size(); ++p) {
                CacheEntry &e = per_layer[p];
                if (!e.built || pinnedIdx_[p] ||
                    (installedIdx_ >= 0 &&
                     p == static_cast<size_t>(installedIdx_)))
                    continue;
                if (victim == nullptr || e.lastUse < victim->lastUse)
                    victim = &e;
            }
        }
        if (victim == nullptr)
            break;
        total -= cellBytes(*victim);
        *victim = CacheEntry();
        cacheEvictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

bool
RpsEngine::cellResident(size_t layer, int bits) const
{
    TWOINONE_ASSERT(layer < cache_.size(), "layer index out of range");
    TWOINONE_ASSERT(cacheSet_.contains(bits), "precision ", bits,
                    " not cached");
    size_t p = static_cast<size_t>(cacheSet_.indexOf(bits));
    return cache_[layer][p].built;
}

uint64_t
RpsEngine::cacheEvictions() const
{
    return cacheEvictions_.load(std::memory_order_relaxed);
}

uint64_t
RpsEngine::cellHydrations() const
{
    return cellHydrations_.load(std::memory_order_relaxed);
}

} // namespace twoinone
