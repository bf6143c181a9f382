/**
 * @file
 * Versioned model artifacts: the single-file binary format that makes
 * a trained RPS model leave the process.
 *
 * A checkpoint is the unit of deployment for the paper's serving
 * story: a network trained once under random precision switch, then
 * shipped to an accelerator that serves it at randomly drawn
 * precisions. One file carries everything a fresh process needs to
 * reproduce the training process's inference bit-for-bit:
 *
 *   - the architecture spec (NetworkSpec: candidate precisions +
 *     per-layer construction specs), so the network is rebuilt from
 *     data, not C++ code;
 *   - every named state blob (master weights, SBN banks with their
 *     running statistics and trained flags, per-(ActQuant, precision)
 *     calibration range banks and the static-scale mode);
 *   - optionally the SGD velocity buffers, so a resumed training run
 *     continues its momentum trajectory bit-identically;
 *   - optionally the RpsEngine weight-code cache (integer codes +
 *     bit-packed STE masks per layer x candidate), so a loaded model
 *     warm-starts its engine without a single quantization pass.
 *
 * Format version 2 (little-endian) is *section-directory* framed so
 * readers can hydrate lazily (io/stream.hh):
 *
 *   magic "2IN1CKPT" (8) | format version u32 | flags u32
 *   section count u32
 *   per section: tag (4 raw bytes), a i32, b i32, offset u64,
 *                size u64, fnv1a64(section bytes) u64
 *   fnv1a64(header + directory) u64
 *   section payloads, back to back (offsets are absolute; sections
 *   tile the rest of the file exactly)
 *
 * Sections, in file order (a/b are -1 unless noted):
 *
 *   ARCH   precisions intVec; layer count u32;
 *          per layer: kind str, args intVec
 *   STAT   entry count u32; per entry: name str, dtype u8, payload
 *          (dtype 0 = f32 tensor, 1 = f32 vec, 2 = u8 vec, 3 = bool)
 *   MOMN   (flags bit 3) SGD velocity: count u32, then one f32
 *          tensor per network parameter, in Network::parameters()
 *          order
 *   CBIT   (flags bit 0) cached precisions intVec; cached layer
 *          count u32
 *   CELL   (flags bit 0; a = layer, b = bits) one engine cache cell:
 *          codes (shape intVec, scale f32, bits i32, signed u8,
 *          codes i32Vec), STE mask bit-packed u8Vec
 *   PACK   (flags bit 2; a = layer, b = bits; requires CBIT) the
 *          cell's tile-packed kernel weights: m/k/bits/tiles/groups8/
 *          groups16 i32 each, p8 u8Vec, p16 i16Vec, rowSum i64Vec
 *   TUNE   (flags bit 1) one tune::TuningArtifact (version u32,
 *          seed u64, serving genome, predicted cost f32)
 *
 * Every file byte is covered by a checksum: header + directory by the
 * directory hash, payload bytes by their section's hash. There is one
 * loader, Checkpoint: open() verifies the directory and the cheap
 * model sections, and every engine cell (CELL, with its PACK) goes
 * through one decoder when the engine takes it — all at once at load,
 * or one cell at a time on first install (restoreEngine's two
 * timings). read() adds a pass over every cell section, the whole-file
 * integrity check.
 *
 * Malformed input (missing file, truncation, checksum mismatch,
 * unsupported version, incompatible spec) throws io::CheckpointError —
 * it is a recoverable caller-facing condition, not a library bug.
 */

#ifndef TWOINONE_IO_CHECKPOINT_HH
#define TWOINONE_IO_CHECKPOINT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hh"
#include "io/stream.hh"
#include "nn/network.hh"
#include "nn/sgd.hh"
#include "quant/rps_engine.hh"
#include "tune/artifact.hh"

namespace twoinone {
namespace checkpoint {

/** Current checkpoint format version (the v2 section directory). */
constexpr uint32_t kFormatVersion = io::kStreamFormatVersion;

/** Save-time options. */
struct SaveOptions
{
    /** Serialize the engine's weight-code cache (when an engine is
     * passed): bigger file, zero-quantization warm start on load. */
    bool includeEngineCache = true;
    /** Also serialize each cache cell's tile-packed kernel weights
     * (requires the cache section): bigger file again, but a warm
     * start then installs ready-to-run packs — packBuilds() == 0, no
     * pack pass before the first served batch. */
    bool includeEnginePacks = false;
    /** Serving-autotuner artifact to embed as the tuning section
     * (null = none). Session::fromCheckpoint auto-applies it. */
    const tune::TuningArtifact *tuning = nullptr;
    /** Optimizer whose velocity buffers to persist (null = none).
     * restoreOptimizer() puts them back, so a reloaded training run
     * resumes its momentum trajectory bit-identically. */
    const Sgd *optimizer = nullptr;
};

/**
 * Write @p net (arch spec + full state) to @p path, optionally with
 * @p engine's weight-code cache. Non-const: state collection reads
 * through live member pointers and the engine brings stale cells
 * current before export. Throws io::CheckpointError on I/O failure.
 */
void save(const std::string &path, Network &net,
          RpsEngine *engine = nullptr,
          const SaveOptions &opts = SaveOptions());

/**
 * A model artifact opened for loading — the one loader. open()
 * validates the header and section directory and decodes the cheap
 * model sections (ARCH, STAT, MOMN, CBIT, TUNE); the engine cells stay
 * on disk until restoreEngine() takes them, eagerly or lazily.
 * instantiate()/restoreEngine() then rebuild the live objects from the
 * one open file.
 */
class Checkpoint
{
  public:
    /** Open @p path: verify the header + directory and decode the
     * model sections (throws io::CheckpointError on any malformation:
     * missing file, truncation, bad magic, unsupported version,
     * checksum mismatch, a scrambled directory). */
    static Checkpoint open(const std::string &path);

    /** open() plus one decode of every engine cell and pack: after it,
     * every section checksum in the file has been verified (the
     * whole-file integrity check). */
    static Checkpoint read(const std::string &path);

    /** The architecture spec the artifact was saved from. */
    const NetworkSpec &spec() const { return spec_; }

    /**
     * Build a fresh Network from the spec and restore every state
     * blob into it. The result reproduces the saved model's inference
     * bit-for-bit. Throws io::CheckpointError when the artifact is
     * missing state the rebuilt network needs or shapes disagree.
     */
    Network instantiate() const;

    /** Whether the artifact carries a serialized engine cache. */
    bool hasEngineCache() const { return !cacheBits_.empty(); }

    /** Whether the cache section also carries tile packs. */
    bool hasEnginePacks() const;

    /** Whether the artifact carries SGD velocity buffers. */
    bool hasOptimizerState() const { return hasMomentum_; }

    /**
     * Restore the persisted velocity buffers into @p opt, keyed by
     * @p net's parameter order (@p net must be the instantiate()d
     * network or one of identical architecture). Throws
     * io::CheckpointError when the artifact has no optimizer state or
     * the buffers do not match the network's parameters.
     */
    void restoreOptimizer(Sgd &opt, Network &net) const;

    /** The embedded tuning artifact, or null when the checkpoint has
     * no tuning section. */
    const tune::TuningArtifact *tuning() const { return tuning_.get(); }

    /** The underlying section reader (hydration accounting:
     * bytesRead()/sectionsRead() tell how much of the artifact a load
     * actually touched). */
    const io::SectionReader &reader() const { return *reader_; }

    /**
     * Build a DeferBuild engine on @p net warm-started from the
     * serialized code cache; no quantization pass runs. Returns
     * nullptr when the artifact has no cache section. @p net must be
     * the instantiate()d network (or one of identical architecture):
     * a cached precision outside its bound set or a different weight
     * layer count throws io::CheckpointError.
     *
     * Eager (@p lazy false): every cell, with its pack when the
     * artifact has packs, is decoded and imported now
     * (columnRebuilds() == 0); a malformed cell, or one that does not
     * fit its layer, throws. Lazy: the engine gets a cell hydrator
     * that decodes each (layer, precision) cell on its first install
     * and keeps the open file alive; a malformed or misfit cell is
     * rebuilt from the master weights instead, which reproduces the
     * persisted codes bit for bit — serving stays correct, the cell
     * just loses its warm-start discount.
     */
    std::unique_ptr<RpsEngine> restoreEngine(Network &net,
                                             bool lazy = false) const;

  private:
    /** One named state blob (see StateEntry for the dtype mapping). */
    struct Blob
    {
        uint8_t dtype = 0;
        Tensor tensor;
        std::vector<float> floats;
        std::vector<char> flags;
        bool flag = false;
    };

    /** The open artifact; a lazy engine's hydrator shares it. */
    std::shared_ptr<const io::SectionReader> reader_;
    NetworkSpec spec_;
    std::map<std::string, Blob> blobs_;
    /** Velocity tensors in Network::parameters() order (MOMN). */
    std::vector<Tensor> momentum_;
    bool hasMomentum_ = false;
    /** Cached precisions (CBIT), in the cache set's order. */
    std::vector<int> cacheBits_;
    /** Weight layers the cache covers (CBIT). */
    size_t cacheLayers_ = 0;
    /** The tuning section, when present. */
    std::unique_ptr<tune::TuningArtifact> tuning_;
};

} // namespace checkpoint
} // namespace twoinone

#endif // TWOINONE_IO_CHECKPOINT_HH
