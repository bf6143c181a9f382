/**
 * @file
 * Checkpoint format implementation (version 2: section directory).
 */

#include "io/checkpoint.hh"

#include <array>
#include <cstring>

#include "nn/model_zoo.hh"

namespace twoinone {
namespace checkpoint {

namespace {

const char kMagic[8] = {'2', 'I', 'N', '1', 'C', 'K', 'P', 'T'};
constexpr uint32_t kFlagEngineCache = 1u << 0;
constexpr uint32_t kFlagTuning = 1u << 1;
constexpr uint32_t kFlagEnginePacks = 1u << 2;
constexpr uint32_t kFlagMomentum = 1u << 3;

constexpr const char *kTagArch = "ARCH";
constexpr const char *kTagState = "STAT";
constexpr const char *kTagMomentum = "MOMN";
constexpr const char *kTagCacheBits = "CBIT";
constexpr const char *kTagCell = "CELL";
constexpr const char *kTagPack = "PACK";
constexpr const char *kTagTuning = "TUNE";

/** Pack a 0/1 float mask into bits (8 elements per byte). */
std::vector<char>
packMask(const Tensor &mask)
{
    std::vector<char> out((mask.size() + 7) / 8, 0);
    for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] != 0.0f)
            out[i >> 3] |= static_cast<char>(1 << (i & 7));
    }
    return out;
}

/** Unpack a bit mask into a 0/1 float tensor of @p shape. */
Tensor
unpackMask(const std::vector<char> &bytes, const std::vector<int> &shape,
           size_t count)
{
    if (bytes.size() != (count + 7) / 8)
        throw io::CheckpointError(
            "corrupt checkpoint: STE mask size mismatch");
    Tensor mask(shape);
    for (size_t i = 0; i < count; ++i)
        mask[i] = (bytes[i >> 3] >> (i & 7)) & 1 ? 1.0f : 0.0f;
    return mask;
}

void
writeStateEntry(io::Writer &w, const StateEntry &e)
{
    w.str(e.name);
    if (e.tensor) {
        w.u8(0);
        w.tensor(*e.tensor);
    } else if (e.floats) {
        w.u8(1);
        w.f32Vec(e.floats->data(), e.floats->size());
    } else if (e.flags) {
        w.u8(2);
        w.u8Vec(e.flags->data(), e.flags->size());
    } else if (e.flag) {
        w.u8(3);
        w.u8(*e.flag ? 1 : 0);
    } else {
        TWOINONE_PANIC("state entry \"", e.name, "\" has no payload");
    }
}

void
writeCodes(io::Writer &w, const QuantTensor &q)
{
    w.intVec(q.shape);
    w.f32(q.scale);
    w.i32(q.bits);
    w.u8(q.isSigned ? 1 : 0);
    w.i32Vec(q.codes.data(), q.codes.size());
}

void
writePack(io::Writer &w, const gemm::PackedIntWeights &p)
{
    w.i32(p.m);
    w.i32(p.k);
    w.i32(p.bits);
    w.i32(p.tiles);
    w.i32(p.groups8);
    w.i32(p.groups16);
    w.u8Vec(reinterpret_cast<const char *>(p.p8.data()),
            p.p8.size());
    w.i16Vec(p.p16.data(), p.p16.size());
    w.i64Vec(p.rowSum.data(), p.rowSum.size());
}

gemm::PackedIntWeights
readPack(io::Reader &r)
{
    gemm::PackedIntWeights p;
    p.m = r.i32();
    p.k = r.i32();
    p.bits = r.i32();
    p.tiles = r.i32();
    p.groups8 = r.i32();
    p.groups16 = r.i32();
    std::vector<char> p8 = r.u8Vec();
    p.p8.resize(p8.size());
    if (!p8.empty())
        std::memcpy(p.p8.data(), p8.data(), p8.size());
    p.p16 = r.i16Vec();
    p.rowSum = r.i64Vec();
    // rowSum is tile-padded: one slot per packed row, not per real
    // output channel.
    if (p.m < 0 || p.k < 0 || p.bits < 1 || p.bits > 16 ||
        p.tiles < 0 || p.groups8 < 0 || p.groups16 < 0 ||
        p.tiles < (p.m + gemm::kPackTileM - 1) / gemm::kPackTileM ||
        p.rowSum.size() !=
            static_cast<size_t>(p.tiles) * gemm::kPackTileM)
        throw io::CheckpointError(
            "corrupt checkpoint: invalid tile-pack geometry");
    return p;
}

QuantTensor
readCodes(io::Reader &r)
{
    QuantTensor q;
    q.shape = r.intVec();
    q.scale = r.f32();
    q.bits = r.i32();
    q.isSigned = r.u8() != 0;
    q.codes = r.i32Vec();
    // Rank-0 shapes hold zero elements — seed the product like
    // Reader::tensor does, or a crafted one-code cell would pass
    // validation and overflow the unpacked mask tensor.
    size_t expect = q.shape.empty() ? 0 : 1;
    for (int d : q.shape) {
        if (d <= 0)
            throw io::CheckpointError(
                "corrupt checkpoint: non-positive code-tensor dim");
        expect *= static_cast<size_t>(d);
    }
    if (q.codes.size() != expect)
        throw io::CheckpointError("corrupt checkpoint: code payload "
                                  "does not match its shape");
    return q;
}

/** One section being assembled by save(). */
struct SectionBuf
{
    std::array<char, 4> tag;
    int32_t a;
    int32_t b;
    io::Writer w;
};

SectionBuf
makeSection(const char *tag, int32_t a = -1, int32_t b = -1)
{
    SectionBuf s;
    std::memcpy(s.tag.data(), tag, 4);
    s.a = a;
    s.b = b;
    return s;
}

/** A parsed section must have been consumed exactly. */
void
requireSectionEnd(const io::Reader &r, const char *tag)
{
    if (!r.atEnd())
        throw io::CheckpointError(
            "corrupt checkpoint: " + std::to_string(r.remaining()) +
            " trailing bytes in section " + std::string(tag, 4));
}

/** The directory entry at @p idx, which must carry @p tag (and match
 * @p a / @p b when >= 0) — open() enforces the canonical section
 * order so a structurally scrambled artifact fails loudly. */
const io::SectionInfo &
expectSection(const io::SectionReader &sr, size_t idx, const char *tag,
              int32_t a = -1, int32_t b = -1)
{
    if (idx >= sr.sections().size())
        throw io::CheckpointError("corrupt checkpoint: missing " +
                                  std::string(tag, 4) + " section");
    const io::SectionInfo &s = sr.sections()[idx];
    if (!s.is(tag) || (a >= 0 && s.a != a) || (b >= 0 && s.b != b))
        throw io::CheckpointError(
            "corrupt checkpoint: unexpected section " +
            std::string(s.tag, 4) + " at index " + std::to_string(idx) +
            " (wanted " + std::string(tag, 4) + ")");
    return s;
}

/** The one cell decoder: read, verify and decode the (@p layer,
 * @p bits) CELL — and the matching PACK when the artifact carries
 * packs — into a cell the engine can import. Throws
 * io::CheckpointError on a missing or malformed section. */
RpsEngine::HydratedCell
decodeCell(const io::SectionReader &sr, size_t layer, int bits)
{
    const int32_t l = static_cast<int32_t>(layer);
    RpsEngine::HydratedCell out;
    const io::SectionInfo *ci = sr.find(kTagCell, l, bits);
    if (ci == nullptr)
        throw io::CheckpointError("corrupt checkpoint: missing CELL "
                                  "section");
    std::vector<uint8_t> bytes = sr.read(*ci);
    io::Reader r(bytes.data(), bytes.size());
    out.codes = readCodes(r);
    std::vector<char> mask_bytes = r.u8Vec();
    requireSectionEnd(r, kTagCell);
    if (out.codes.bits != bits)
        throw io::CheckpointError("corrupt checkpoint: cell precision "
                                  "does not match its directory key");
    out.steMask =
        unpackMask(mask_bytes, out.codes.shape, out.codes.size());
    if ((sr.flags() & kFlagEnginePacks) == 0)
        return out;
    const io::SectionInfo *pi = sr.find(kTagPack, l, bits);
    if (pi == nullptr)
        throw io::CheckpointError("corrupt checkpoint: missing PACK "
                                  "section");
    std::vector<uint8_t> pbytes = sr.read(*pi);
    io::Reader pr(pbytes.data(), pbytes.size());
    out.packed = readPack(pr);
    requireSectionEnd(pr, kTagPack);
    if (out.packed.bits != bits)
        throw io::CheckpointError("corrupt checkpoint: pack precision "
                                  "does not match its directory key");
    out.hasPack = true;
    return out;
}

} // namespace

void
save(const std::string &path, Network &net, RpsEngine *engine,
     const SaveOptions &opts)
{
    bool with_cache = engine != nullptr && opts.includeEngineCache;
    bool with_packs = with_cache && opts.includeEnginePacks;
    bool with_momentum = opts.optimizer != nullptr;

    std::vector<SectionBuf> secs;

    // ARCH ----------------------------------------------------------
    {
        SectionBuf s = makeSection(kTagArch);
        NetworkSpec spec = net.spec();
        s.w.intVec(spec.precisions);
        s.w.u32(static_cast<uint32_t>(spec.layers.size()));
        for (const LayerSpec &ls : spec.layers) {
            s.w.str(ls.kind);
            s.w.intVec(ls.args);
        }
        secs.push_back(std::move(s));
    }

    // STAT ----------------------------------------------------------
    {
        SectionBuf s = makeSection(kTagState);
        StateDict dict;
        net.collectState(dict);
        s.w.u32(static_cast<uint32_t>(dict.size()));
        for (const StateEntry &e : dict)
            writeStateEntry(s.w, e);
        secs.push_back(std::move(s));
    }

    // MOMN ----------------------------------------------------------
    if (with_momentum) {
        SectionBuf s = makeSection(kTagMomentum);
        std::vector<Parameter *> params = net.parameters();
        std::vector<Tensor> vel =
            opts.optimizer->exportVelocity(params);
        s.w.u32(static_cast<uint32_t>(vel.size()));
        for (const Tensor &v : vel)
            s.w.tensor(v);
        secs.push_back(std::move(s));
    }

    // CBIT + CELL ---------------------------------------------------
    if (with_cache) {
        const std::vector<int> &bits = engine->set().bits();
        {
            SectionBuf s = makeSection(kTagCacheBits);
            s.w.intVec(bits);
            s.w.u32(static_cast<uint32_t>(engine->numQuantLayers()));
            secs.push_back(std::move(s));
        }
        for (size_t l = 0; l < engine->numQuantLayers(); ++l) {
            for (int b : bits) {
                SectionBuf s = makeSection(
                    kTagCell, static_cast<int32_t>(l), b);
                // codesFor/steMaskFor bring a stale cell current
                // first, so the exported cache always matches the
                // exported master weights.
                writeCodes(s.w, engine->codesFor(l, b));
                std::vector<char> packed =
                    packMask(engine->steMaskFor(l, b));
                s.w.u8Vec(packed.data(), packed.size());
                secs.push_back(std::move(s));
            }
        }
    }

    // PACK ----------------------------------------------------------
    if (with_packs) {
        const std::vector<int> &bits = engine->set().bits();
        for (size_t l = 0; l < engine->numQuantLayers(); ++l) {
            for (int b : bits) {
                SectionBuf s = makeSection(
                    kTagPack, static_cast<int32_t>(l), b);
                writePack(s.w, engine->packedFor(l, b));
                secs.push_back(std::move(s));
            }
        }
    }

    // TUNE ----------------------------------------------------------
    if (opts.tuning != nullptr) {
        SectionBuf s = makeSection(kTagTuning);
        opts.tuning->write(s.w);
        secs.push_back(std::move(s));
    }

    // Assemble: header | directory | directory checksum | sections.
    // Every byte lands under a checksum: the front matter (including
    // the flags word) under the directory hash, every payload byte
    // under its section hash — a flip anywhere reads as corruption.
    uint32_t flags = (with_cache ? kFlagEngineCache : 0) |
                     (with_packs ? kFlagEnginePacks : 0) |
                     (opts.tuning != nullptr ? kFlagTuning : 0) |
                     (with_momentum ? kFlagMomentum : 0);
    io::Writer front;
    for (char c : kMagic)
        front.u8(static_cast<uint8_t>(c));
    front.u32(kFormatVersion);
    front.u32(flags);
    front.u32(static_cast<uint32_t>(secs.size()));
    uint64_t offset = io::kStreamHeaderBytes + sizeof(uint32_t) +
                      secs.size() * io::kDirEntryBytes +
                      sizeof(uint64_t);
    uint64_t total = offset;
    for (const SectionBuf &s : secs) {
        for (char c : s.tag)
            front.u8(static_cast<uint8_t>(c));
        front.i32(s.a);
        front.i32(s.b);
        front.u64(offset);
        front.u64(s.w.size());
        front.u64(io::fnv1a(s.w.bytes().data(), s.w.size()));
        offset += s.w.size();
        total += s.w.size();
    }
    uint64_t dir_hash =
        io::fnv1a(front.bytes().data(), front.size());
    front.u64(dir_hash);

    std::vector<uint8_t> bytes = front.bytes();
    bytes.reserve(total);
    for (const SectionBuf &s : secs)
        bytes.insert(bytes.end(), s.w.bytes().begin(),
                     s.w.bytes().end());
    // Atomic replace: a crash (or injected fault) mid-save must never
    // leave a torn artifact at the target path — serving fleets reload
    // checkpoints while the trainer overwrites them.
    io::writeFileAtomic(path, bytes);
}

Checkpoint
Checkpoint::open(const std::string &path)
{
    Checkpoint ckpt;
    ckpt.reader_ = std::make_shared<const io::SectionReader>(path);
    const io::SectionReader &sr = *ckpt.reader_;
    const uint32_t flags = sr.flags();
    size_t idx = 0;

    // ARCH ----------------------------------------------------------
    {
        std::vector<uint8_t> bytes =
            sr.read(expectSection(sr, idx++, kTagArch));
        io::Reader r(bytes.data(), bytes.size());
        ckpt.spec_.precisions = r.intVec();
        // A layer spec is at least an empty kind string + empty args
        // vector (two u32 counts).
        uint32_t nlayers = r.u32();
        if (static_cast<size_t>(nlayers) > r.remaining() / 8)
            throw io::CheckpointError(
                "corrupt checkpoint: layer spec count " +
                std::to_string(nlayers) +
                " exceeds the remaining payload");
        ckpt.spec_.layers.reserve(nlayers);
        for (uint32_t i = 0; i < nlayers; ++i) {
            LayerSpec ls;
            ls.kind = r.str();
            ls.args = r.intVec();
            ckpt.spec_.layers.push_back(std::move(ls));
        }
        requireSectionEnd(r, kTagArch);
    }

    // STAT ----------------------------------------------------------
    {
        std::vector<uint8_t> bytes =
            sr.read(expectSection(sr, idx++, kTagState));
        io::Reader r(bytes.data(), bytes.size());
        uint32_t nentries = r.u32();
        for (uint32_t i = 0; i < nentries; ++i) {
            std::string name = r.str();
            Blob blob;
            blob.dtype = r.u8();
            switch (blob.dtype) {
            case 0:
                blob.tensor = r.tensor();
                break;
            case 1:
                blob.floats = r.f32Vec();
                break;
            case 2:
                blob.flags = r.u8Vec();
                break;
            case 3:
                blob.flag = r.u8() != 0;
                break;
            default:
                throw io::CheckpointError(
                    "corrupt checkpoint: unknown state dtype " +
                    std::to_string(blob.dtype) + " for \"" + name +
                    "\"");
            }
            ckpt.blobs_.emplace(std::move(name), std::move(blob));
        }
        requireSectionEnd(r, kTagState);
    }

    // MOMN ----------------------------------------------------------
    if (flags & kFlagMomentum) {
        std::vector<uint8_t> bytes =
            sr.read(expectSection(sr, idx++, kTagMomentum));
        io::Reader r(bytes.data(), bytes.size());
        // A velocity tensor is at least an empty shape vec (u32) +
        // an element count (u64).
        uint32_t count = r.u32();
        if (static_cast<size_t>(count) > r.remaining() / 12)
            throw io::CheckpointError(
                "corrupt checkpoint: velocity count " +
                std::to_string(count) +
                " exceeds the remaining payload");
        ckpt.momentum_.reserve(count);
        for (uint32_t i = 0; i < count; ++i)
            ckpt.momentum_.push_back(r.tensor());
        ckpt.hasMomentum_ = true;
        requireSectionEnd(r, kTagMomentum);
    }

    // CBIT (cache metadata; cells stay on disk here) ----------------
    if (flags & kFlagEngineCache) {
        std::vector<uint8_t> bytes =
            sr.read(expectSection(sr, idx++, kTagCacheBits));
        io::Reader r(bytes.data(), bytes.size());
        ckpt.cacheBits_ = r.intVec();
        uint32_t nlayers = r.u32();
        requireSectionEnd(r, kTagCacheBits);
        if (ckpt.cacheBits_.empty())
            throw io::CheckpointError(
                "corrupt checkpoint: cache section with no "
                "precisions");
        // The directory must list exactly one CELL per (layer,
        // precision) in canonical order — validated structurally
        // here (cheap), decoded when the engine takes the cells.
        if (static_cast<size_t>(nlayers) >
            sr.sections().size() / ckpt.cacheBits_.size())
            throw io::CheckpointError(
                "corrupt checkpoint: cache layer count " +
                std::to_string(nlayers) +
                " exceeds the section directory");
        ckpt.cacheLayers_ = nlayers;
        for (uint32_t l = 0; l < nlayers; ++l)
            for (int b : ckpt.cacheBits_)
                expectSection(sr, idx++, kTagCell,
                              static_cast<int32_t>(l), b);
        if (flags & kFlagEnginePacks) {
            for (uint32_t l = 0; l < nlayers; ++l)
                for (int b : ckpt.cacheBits_)
                    expectSection(sr, idx++, kTagPack,
                                  static_cast<int32_t>(l), b);
        }
    } else if (flags & kFlagEnginePacks) {
        throw io::CheckpointError(
            "corrupt checkpoint: pack section without a cache "
            "section");
    }

    // TUNE ----------------------------------------------------------
    if (flags & kFlagTuning) {
        std::vector<uint8_t> bytes =
            sr.read(expectSection(sr, idx++, kTagTuning));
        io::Reader r(bytes.data(), bytes.size());
        ckpt.tuning_ = std::make_unique<tune::TuningArtifact>(
            tune::TuningArtifact::read(r));
        requireSectionEnd(r, kTagTuning);
    }

    if (idx != sr.sections().size())
        throw io::CheckpointError(
            "corrupt checkpoint: " +
            std::to_string(sr.sections().size() - idx) +
            " unexpected extra sections");
    return ckpt;
}

Checkpoint
Checkpoint::read(const std::string &path)
{
    Checkpoint ckpt = open(path);
    // One decode of every cell (and pack), in file order: after this
    // walk every section checksum in the file has been verified.
    for (size_t l = 0; l < ckpt.cacheLayers_; ++l)
        for (int b : ckpt.cacheBits_)
            decodeCell(*ckpt.reader_, l, b);
    return ckpt;
}

bool
Checkpoint::hasEnginePacks() const
{
    return (reader_->flags() & kFlagEnginePacks) != 0;
}

Network
Checkpoint::instantiate() const
{
    Network net = buildFromSpec(spec_);
    StateDict dict;
    net.collectState(dict);
    for (const StateEntry &e : dict) {
        auto it = blobs_.find(e.name);
        if (it == blobs_.end())
            throw io::CheckpointError("checkpoint is missing state \"" +
                                      e.name + "\"");
        const Blob &b = it->second;
        if (e.tensor) {
            if (b.dtype != 0 || b.tensor.shape() != e.tensor->shape())
                throw io::CheckpointError("checkpoint state \"" +
                                          e.name +
                                          "\" does not match the "
                                          "rebuilt layer");
            *e.tensor = b.tensor;
        } else if (e.floats) {
            if (b.dtype != 1)
                throw io::CheckpointError("checkpoint state \"" +
                                          e.name + "\" has wrong type");
            *e.floats = b.floats;
        } else if (e.flags) {
            if (b.dtype != 2)
                throw io::CheckpointError("checkpoint state \"" +
                                          e.name + "\" has wrong type");
            *e.flags = b.flags;
        } else if (e.flag) {
            if (b.dtype != 3)
                throw io::CheckpointError("checkpoint state \"" +
                                          e.name + "\" has wrong type");
            *e.flag = b.flag;
        }
    }
    // Vector/flag blobs were restored at whatever length the artifact
    // carried; a checksum-valid but internally inconsistent artifact
    // must fail here, not read out of bounds at inference.
    std::string err = net.checkState();
    if (!err.empty())
        throw io::CheckpointError("checkpoint state invalid: " + err);
    return net;
}

void
Checkpoint::restoreOptimizer(Sgd &opt, Network &net) const
{
    if (!hasMomentum_)
        throw io::CheckpointError(
            "checkpoint carries no optimizer state");
    std::vector<Parameter *> params = net.parameters();
    if (momentum_.size() != params.size())
        throw io::CheckpointError(
            "checkpoint optimizer state covers " +
            std::to_string(momentum_.size()) +
            " parameters, network has " +
            std::to_string(params.size()));
    for (size_t i = 0; i < params.size(); ++i) {
        if (momentum_[i].shape() != params[i]->value.shape())
            throw io::CheckpointError(
                "checkpoint velocity shape does not match "
                "parameter " +
                std::to_string(i));
    }
    opt.importVelocity(params, momentum_);
}

std::unique_ptr<RpsEngine>
Checkpoint::restoreEngine(Network &net, bool lazy) const
{
    if (!hasEngineCache())
        return nullptr;
    for (int b : cacheBits_) {
        if (!net.precisionSet().contains(b))
            throw io::CheckpointError(
                "checkpoint cache precision " + std::to_string(b) +
                " is not in the network's bound set");
    }
    auto engine = std::make_unique<RpsEngine>(
        net, precisionSetFromSpec(cacheBits_), RpsEngine::DeferBuild{});
    if (engine->numQuantLayers() != cacheLayers_)
        throw io::CheckpointError(
            "checkpoint cache covers " + std::to_string(cacheLayers_) +
            " weight layers, network has " +
            std::to_string(engine->numQuantLayers()));
    if (lazy) {
        // The hydrator shares the open reader, so the artifact lives
        // exactly as long as the engine may still fault cells in. A
        // cell that fails to decode reads as absent, and the engine
        // rebuilds it from the master weights.
        std::shared_ptr<const io::SectionReader> sr = reader_;
        engine->setCellHydrator([sr](size_t layer, int bits,
                                     RpsEngine::HydratedCell &out) {
            try {
                out = decodeCell(*sr, layer, bits);
                return true;
            } catch (const io::CheckpointError &) {
                return false;
            }
        });
        return engine;
    }
    for (size_t l = 0; l < cacheLayers_; ++l) {
        for (size_t p = 0; p < cacheBits_.size(); ++p) {
            if (!engine->importCell(l, p,
                                    decodeCell(*reader_, l, cacheBits_[p])))
                throw io::CheckpointError(
                    "checkpoint cache cell does not match layer " +
                    std::to_string(l));
        }
    }
    return engine;
}

} // namespace checkpoint
} // namespace twoinone
