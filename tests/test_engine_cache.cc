/**
 * @file
 * Tests for the byte-budgeted engine cache and the streaming artifact
 * path (ISSUE 10): the cacheBytes() <= budget invariant under switch
 * churn, pinned precisions surviving eviction, evict -> rehydrate /
 * evict -> rebuild forward bit-identity at every rps4to16 candidate,
 * lazy per-(layer, precision) hydration from the section directory,
 * and the corrupt-cell rebuild fallback. CMake re-runs this binary
 * under TWOINONE_THREADS=1/4 and TWOINONE_BACKEND=naive; the tsan CI
 * job runs it under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "io/checkpoint.hh"
#include "io/stream.hh"
#include "nn/model_zoo.hh"
#include "quant/rps_engine.hh"
#include "serve/session.hh"

namespace twoinone {
namespace {

std::string
tmpPath(const std::string &name)
{
    // PID-qualified: the thread/backend matrix may run variants of
    // this binary in parallel.
    return testing::TempDir() + "twoinone_cache_" +
           std::to_string(::getpid()) + "_" + name + ".ckpt";
}

Network
makeResidualNet(uint64_t seed)
{
    Rng rng(seed);
    ModelConfig cfg;
    cfg.baseWidth = 8;
    return preActResNetMini(cfg, rng);
}

Tensor
makeInput(uint64_t seed)
{
    Rng rng(seed);
    return Tensor::uniform({4, 3, 8, 8}, rng, 0.0f, 1.0f);
}

void
expectBitIdentical(const Tensor &a, const Tensor &b, int bits)
{
    ASSERT_EQ(a.shape(), b.shape()) << "bits=" << bits;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "bits=" << bits << " i=" << i;
}

/** Populate every cached column (codes, float views, packs). */
void
populate(RpsEngine &eng)
{
    for (int bits : eng.set().bits())
        eng.setPrecision(bits);
}

/** Flip one byte inside the first CELL payload of the artifact at
 * @p path and return that cell's precision: the directory still
 * verifies, so the damage surfaces exactly when that cell is read. */
int
corruptFirstCell(const std::string &path)
{
    uint64_t off = 0;
    int bits = 0;
    {
        io::SectionReader sr(path);
        const io::SectionInfo *cell = sr.find("CELL");
        if (cell == nullptr)
            return 0;
        off = cell->offset + cell->size / 2;
        bits = cell->b;
    }
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(off));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(off));
    f.put(static_cast<char>(c ^ 0x5a));
    return bits;
}

/** The invariant: once a budget is set, cacheBytes() never exceeds it
 * — not after the initial trim, not at any point of a random switch
 * churn. */
TEST(EngineCache, BudgetRespectedUnderChurn)
{
    Network net = makeResidualNet(42);
    RpsEngine eng(net);
    populate(eng);
    size_t full = eng.cacheBytes();
    ASSERT_GT(full, 0u);

    EngineCacheConfig cfg;
    cfg.budgetBytes = full * 2 / 5; // ~40%
    eng.setCacheConfig(cfg);
    EXPECT_LE(eng.cacheBytes(), cfg.budgetBytes);
    EXPECT_GT(eng.cacheEvictions(), 0u);

    Rng rng(99);
    for (int i = 0; i < 60; ++i) {
        eng.setPrecision(eng.samplePrecision(rng));
        ASSERT_LE(eng.cacheBytes(), cfg.budgetBytes) << "switch " << i;
    }

    // A default config restores unlimited caching.
    eng.setCacheConfig(EngineCacheConfig());
    populate(eng);
    EXPECT_GT(eng.cacheBytes(), cfg.budgetBytes);
}

/** The acceptance criterion: with the budget at ~40% of the full
 * cache, a full rps4to16 switch sweep (ascending, descending, and
 * random order — forcing evict -> rebuild round trips) stays
 * bit-identical to the unbudgeted engine on both datapaths. */
TEST(EngineCache, BudgetedSweepBitIdenticalToUnbudgeted)
{
    Network net_ref = makeResidualNet(43);
    Network net_bud = makeResidualNet(43);
    Tensor x = makeInput(7);
    RpsEngine ref(net_ref);
    RpsEngine bud(net_bud);
    populate(bud);

    EngineCacheConfig cfg;
    cfg.budgetBytes = bud.cacheBytes() * 2 / 5;
    bud.setCacheConfig(cfg);

    std::vector<int> order = bud.set().bits();
    std::vector<int> sweep(order);
    sweep.insert(sweep.end(), order.rbegin(), order.rend());
    Rng rng(17);
    for (int i = 0; i < 12; ++i)
        sweep.push_back(bud.samplePrecision(rng));

    for (int bits : sweep) {
        expectBitIdentical(ref.forwardAt(bits, x),
                           bud.forwardAt(bits, x), bits);
        expectBitIdentical(ref.forwardQuantizedAt(bits, x),
                           bud.forwardQuantizedAt(bits, x), bits);
        ASSERT_LE(bud.cacheBytes(), cfg.budgetBytes);
    }
    EXPECT_GT(bud.cacheEvictions(), 0u);
    EXPECT_GT(bud.columnRebuilds(), 0u); // evicted cells came back
}

/** Pinned precisions ride out any churn: their cells stay resident
 * while unpinned columns are evicted around them. */
TEST(EngineCache, PinnedPrecisionNeverEvicted)
{
    Network net = makeResidualNet(44);
    RpsEngine eng(net);
    populate(eng);

    int pinned = eng.set().bits().front();
    EngineCacheConfig cfg;
    cfg.budgetBytes = eng.cacheBytes() / 3;
    cfg.pinnedBits = {pinned};
    eng.setCacheConfig(cfg);

    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
        eng.setPrecision(eng.samplePrecision(rng));
        for (size_t l = 0; l < eng.numQuantLayers(); ++l)
            ASSERT_TRUE(eng.cellResident(l, pinned))
                << "layer " << l << " after switch " << i;
    }
    EXPECT_GT(eng.cacheEvictions(), 0u);
}

/** An infeasible budget (smaller than installed + pinned) stops at
 * the evictable floor instead of breaking serving: forwards stay
 * bit-identical even though the ceiling cannot be met. */
TEST(EngineCache, InfeasibleBudgetKeepsServing)
{
    Network net_ref = makeResidualNet(45);
    Network net_bud = makeResidualNet(45);
    Tensor x = makeInput(8);
    RpsEngine ref(net_ref);
    RpsEngine bud(net_bud);

    EngineCacheConfig cfg;
    cfg.budgetBytes = 1;
    bud.setCacheConfig(cfg);
    for (int bits : bud.set().bits()) {
        expectBitIdentical(ref.forwardAt(bits, x),
                           bud.forwardAt(bits, x), bits);
        // The installed column itself is never evictable, so the
        // cache floor sits above this absurd budget — by design.
        EXPECT_GT(bud.cacheBytes(), cfg.budgetBytes);
    }
    EXPECT_GT(bud.cacheEvictions(), 0u);
}

/** Streaming warm start: only the directory + eager sections are read
 * at open; each (layer, precision) cell hydrates on first install
 * (with its pack — zero rebuilds, zero pack builds), and untouched
 * columns never leave the disk. */
TEST(EngineCache, StreamingWarmStartHydratesLazily)
{
    Network net = makeResidualNet(46);
    Tensor x = makeInput(9);
    RpsEngine engine(net);
    populate(engine);

    std::string path = tmpPath("stream");
    checkpoint::SaveOptions opts;
    opts.includeEnginePacks = true;
    checkpoint::save(path, net, &engine, opts);

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::open(path);
    ASSERT_TRUE(ckpt.hasEngineCache());
    // The open hydrated spec + state, not the cells: most of the
    // artifact (the cache payload) is still unread.
    const io::SectionReader &sr = ckpt.reader();
    EXPECT_LT(sr.bytesRead(), sr.fileSize() / 2);

    Network net2 = ckpt.instantiate();
    std::unique_ptr<RpsEngine> eng2 =
        ckpt.restoreEngine(net2, /*lazy=*/true);
    ASSERT_NE(eng2, nullptr);
    EXPECT_EQ(eng2->cellHydrations(), 0u); // nothing touched yet

    int first = eng2->set().bits().front();
    expectBitIdentical(engine.forwardAt(first, x),
                       eng2->forwardAt(first, x), first);
    // One column hydrated — no quantization pass, no pack pass, and
    // the other columns' sections are still on disk.
    EXPECT_EQ(eng2->cellHydrations(), eng2->numQuantLayers());
    EXPECT_EQ(eng2->columnRebuilds(), 0u);
    EXPECT_EQ(eng2->packBuilds(), 0u);
    EXPECT_LT(sr.bytesRead(), sr.fileSize());

    for (int bits : eng2->set().bits()) {
        expectBitIdentical(engine.forwardAt(bits, x),
                           eng2->forwardAt(bits, x), bits);
        expectBitIdentical(engine.forwardQuantizedAt(bits, x),
                           eng2->forwardQuantizedAt(bits, x), bits);
    }
    EXPECT_EQ(eng2->columnRebuilds(), 0u);
    EXPECT_EQ(eng2->packBuilds(), 0u);
    std::remove(path.c_str());
}

/** Evict -> rehydrate bit-identity: a streaming engine under a 40%
 * budget keeps serving every candidate bit-identically, refilling
 * evicted cells from the artifact instead of re-quantizing. */
TEST(EngineCache, EvictedCellsRehydrateBitIdentically)
{
    Network net = makeResidualNet(47);
    Tensor x = makeInput(10);
    RpsEngine engine(net);
    populate(engine);
    size_t full = engine.cacheBytes();

    std::string path = tmpPath("rehydrate");
    checkpoint::SaveOptions opts;
    opts.includeEnginePacks = true;
    checkpoint::save(path, net, &engine, opts);

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::open(path);
    Network net2 = ckpt.instantiate();
    std::unique_ptr<RpsEngine> eng2 =
        ckpt.restoreEngine(net2, /*lazy=*/true);
    ASSERT_NE(eng2, nullptr);
    EngineCacheConfig cfg;
    cfg.budgetBytes = full * 2 / 5;
    eng2->setCacheConfig(cfg);

    std::vector<int> bits = eng2->set().bits();
    std::vector<int> sweep(bits);
    sweep.insert(sweep.end(), bits.rbegin(), bits.rend());
    sweep.insert(sweep.end(), bits.begin(), bits.end());
    for (int b : sweep) {
        expectBitIdentical(engine.forwardAt(b, x),
                           eng2->forwardAt(b, x), b);
        ASSERT_LE(eng2->cacheBytes(), cfg.budgetBytes);
    }
    EXPECT_GT(eng2->cacheEvictions(), 0u);
    // Every refill came from the artifact: more hydrations than
    // cells, and still not one quantization pass.
    EXPECT_GT(eng2->cellHydrations(),
              eng2->numQuantLayers() * bits.size());
    EXPECT_EQ(eng2->columnRebuilds(), 0u);
    std::remove(path.c_str());
}

/** A corrupted cell section is caught by its checksum at hydration
 * and falls back to re-quantizing from the masters — bit-identical,
 * serving uninterrupted. */
TEST(EngineCache, CorruptCellHydrationFallsBackToRebuild)
{
    Network net = makeResidualNet(48);
    Tensor x = makeInput(11);
    RpsEngine engine(net);
    populate(engine);

    std::string path = tmpPath("corrupt");
    checkpoint::save(path, net, &engine);
    int bad_bits = corruptFirstCell(path);
    ASSERT_NE(bad_bits, 0);

    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::open(path);
    Network net2 = ckpt.instantiate();
    std::unique_ptr<RpsEngine> eng2 =
        ckpt.restoreEngine(net2, /*lazy=*/true);
    ASSERT_NE(eng2, nullptr);

    expectBitIdentical(engine.forwardAt(bad_bits, x),
                       eng2->forwardAt(bad_bits, x), bad_bits);
    // Exactly the damaged cell rebuilt; its healthy column-mates
    // hydrated.
    EXPECT_EQ(eng2->columnRebuilds(), 1u);
    EXPECT_EQ(eng2->cellHydrations(), eng2->numQuantLayers() - 1);
    std::remove(path.c_str());
}

/** Restoring onto a network the artifact was not saved from: when
 * the layers match but their weights are wider, the eager restore
 * throws and the lazy one refuses every cell — the engine rebuilds
 * them all and serves exactly like a fresh engine. A different weight
 * layer count, or a cached precision outside the network's bound set,
 * throws in both modes. */
TEST(EngineCache, RestoreOntoMismatchedNetwork)
{
    Network net = makeResidualNet(51);
    RpsEngine engine(net);
    std::string path = tmpPath("mismatch");
    checkpoint::SaveOptions opts;
    opts.includeEnginePacks = true;
    checkpoint::save(path, net, &engine, opts);
    checkpoint::Checkpoint ckpt = checkpoint::Checkpoint::open(path);

    auto build = [](uint64_t seed, int width, PrecisionSet set) {
        Rng rng(seed);
        ModelConfig cfg;
        cfg.baseWidth = width;
        cfg.precisions = std::move(set);
        return preActResNetMini(cfg, rng);
    };
    Network wide = build(52, 16, PrecisionSet::rps4to16());
    EXPECT_THROW(ckpt.restoreEngine(wide), io::CheckpointError);
    std::unique_ptr<RpsEngine> lazy =
        ckpt.restoreEngine(wide, /*lazy=*/true);
    ASSERT_NE(lazy, nullptr);
    Network wide_ref = build(52, 16, PrecisionSet::rps4to16());
    RpsEngine fresh(wide_ref);
    Tensor x = makeInput(13);
    for (int bits : lazy->set().bits())
        expectBitIdentical(fresh.forwardAt(bits, x),
                           lazy->forwardAt(bits, x), bits);
    EXPECT_EQ(lazy->cellHydrations(), 0u);

    Rng rng(53);
    ModelConfig tiny_cfg;
    tiny_cfg.baseWidth = 4;
    Network tiny = convNetTiny(tiny_cfg, rng);
    Network narrow = build(54, 8, PrecisionSet::rps4to8());
    for (bool lazy_mode : {false, true}) {
        EXPECT_THROW(ckpt.restoreEngine(tiny, lazy_mode),
                     io::CheckpointError);
        EXPECT_THROW(ckpt.restoreEngine(narrow, lazy_mode),
                     io::CheckpointError);
    }
    std::remove(path.c_str());
}

/** A corrupt cell in an artifact saved with packs: the eager load
 * reads it, so the load fails through its retry budget with an error
 * that names the CELL; the streaming load rebuilds exactly that cell
 * from the masters and serves every candidate bit-identically. */
TEST(SessionCache, CorruptCellFailsEagerLoadStreamingRebuildsIt)
{
    Network net = makeResidualNet(55);
    Tensor x = makeInput(14);
    RpsEngine engine(net);
    populate(engine);
    std::string path = tmpPath("session_corrupt");
    checkpoint::SaveOptions opts;
    opts.includeEnginePacks = true;
    checkpoint::save(path, net, &engine, opts);
    ASSERT_NE(corruptFirstCell(path), 0);

    SessionConfig eager;
    eager.loadRetries = 1;
    std::vector<std::string> errors;
    eager.onLoadRetry = [&](int, const std::string &error) {
        errors.push_back(error);
    };
    EXPECT_THROW(Session::fromCheckpoint(path, eager),
                 io::CheckpointError);
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("CELL"), std::string::npos) << errors[0];

    SessionConfig stream;
    stream.streamArtifact = true;
    Session s = Session::fromCheckpoint(path, stream);
    for (int bits : s.candidates().bits()) {
        s.switchPrecision(bits);
        expectBitIdentical(engine.forwardAt(bits, x), s.forward(x),
                           bits);
    }
    EXPECT_EQ(s.engine().columnRebuilds(), 1u);
    std::remove(path.c_str());
}

/** SessionConfig pass-through: streamArtifact + cacheBudgetBytes +
 * pinnedBits reach the session-owned engine, and serving matches the
 * eager unbudgeted session bit for bit. */
TEST(SessionCache, StreamingBudgetPassThrough)
{
    Network net = makeResidualNet(49);
    Tensor x = makeInput(12);
    RpsEngine engine(net);
    populate(engine);
    size_t full = engine.cacheBytes();

    std::string path = tmpPath("session");
    checkpoint::SaveOptions opts;
    opts.includeEnginePacks = true;
    checkpoint::save(path, net, &engine, opts);

    SessionConfig cfg;
    cfg.streamArtifact = true;
    cfg.cacheBudgetBytes = full * 2 / 5;
    cfg.pinnedBits = {net.precisionSet().bits().front()};
    Session s = Session::fromCheckpoint(path, cfg);
    EXPECT_EQ(s.engine().cacheConfig().budgetBytes,
              cfg.cacheBudgetBytes);

    for (int bits : s.candidates().bits()) {
        s.switchPrecision(bits);
        expectBitIdentical(engine.forwardAt(bits, x), s.forward(x),
                           bits);
        ASSERT_LE(s.engine().cacheBytes(), cfg.cacheBudgetBytes);
    }
    EXPECT_GT(s.engine().cellHydrations(), 0u);
    EXPECT_EQ(s.engine().columnRebuilds(), 0u);
    std::remove(path.c_str());
}

/** A pinned precision outside the cache set is caller data gone
 * wrong: the session rejects it recoverably instead of panicking in
 * the engine. */
TEST(SessionCache, RejectsPinOutsideCacheSet)
{
    Network net = makeResidualNet(50);
    RpsEngine engine(net);
    std::string path = tmpPath("badpin");
    checkpoint::save(path, net, &engine);

    SessionConfig cfg;
    cfg.cacheBudgetBytes = 1 << 20;
    cfg.pinnedBits = {7}; // not an rps4to16 member
    EXPECT_THROW(Session::fromCheckpoint(path, cfg),
                 serve::ServeError);
    std::remove(path.c_str());
}

} // namespace
} // namespace twoinone
