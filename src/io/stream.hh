/**
 * @file
 * Streaming checkpoint I/O: a positional section reader over the
 * version-2 artifact layout.
 *
 * The v1 reader slurped the whole file and checksummed it as one
 * blob, so warm-starting a model cost peak RSS ~= artifact size —
 * fine at 5.5 MB, hopeless for an ImageNet-class network whose code
 * cache runs to gigabytes. Version 2 restructures the artifact into a
 * front-loaded *section directory*: a fixed header, then one entry
 * per section (tag, two i32 keys, absolute offset, size, FNV-1a
 * checksum), then a directory checksum, then the section payloads
 * back to back. A SectionReader parses header + directory eagerly —
 * a few hundred bytes — and hydrates individual sections on demand
 * with pread(2), verifying each section's checksum as it lands.
 *
 * It is the only artifact reader: checkpoint::Checkpoint loads every
 * section through it, whether the engine cells are decoded at load or
 * on first touch. Its integrity guarantees:
 *
 *  - every file byte is covered: header + directory by the directory
 *    checksum, every payload byte by exactly one section checksum,
 *    and the directory must tile the file exactly (contiguous
 *    sections, last one ending at EOF) — trailing or gap bytes are a
 *    framing error;
 *  - any malformation (missing file, truncation, bad magic,
 *    unsupported version, checksum mismatch, non-contiguous
 *    directory) throws io::CheckpointError, never returns garbage.
 *
 * Thread safety: read() is safe to call concurrently from multiple
 * threads (positional reads on a shared descriptor; atomic
 * counters). Construction/destruction must not race with reads.
 *
 * Fault-injection seam: the scenario harness corrupts artifacts by
 * mutating bytes inside io::readFile()'s onRead hook. Positional
 * reads would bypass that seam, so when a read hook is installed at
 * open time the reader degrades to one buffered io::readFile() pass
 * and serves sections out of the (possibly corrupted) buffer —
 * injected corruption lands in whichever section covers the mutated
 * bytes, at the same byte, on both hydration timings.
 */

#ifndef TWOINONE_IO_STREAM_HH
#define TWOINONE_IO_STREAM_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "io/serialize.hh"

namespace twoinone {
namespace io {

/** Fixed artifact framing shared by the writer (checkpoint.cc) and
 * this reader. */
/** @{ */
/** The artifact format version this reader understands (the section-
 * directory layout; checkpoint::kFormatVersion aliases this). */
constexpr uint32_t kStreamFormatVersion = 2;
/** Header: magic (8) | format version u32 | flags u32. */
constexpr size_t kStreamHeaderBytes = 16;
/** One directory entry: tag (4 raw bytes) | a i32 | b i32 |
 * offset u64 | size u64 | checksum u64. */
constexpr size_t kDirEntryBytes = 36;
/** @} */

/**
 * One directory entry: a contiguous, independently checksummed byte
 * range of the artifact. @p a / @p b key multi-instance sections
 * (engine cache cells use a = layer, b = precision bits); single-
 * instance sections carry -1.
 */
struct SectionInfo
{
    char tag[4] = {0, 0, 0, 0};
    int32_t a = -1;
    int32_t b = -1;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;

    bool is(const char *t) const
    {
        return tag[0] == t[0] && tag[1] == t[1] && tag[2] == t[2] &&
               tag[3] == t[3];
    }
};

/**
 * Positional reader over a v2 artifact. Opening parses and validates
 * the header + section directory only; payload bytes move on read().
 */
class SectionReader
{
  public:
    /** Open @p path and parse the header + directory (throws
     * io::CheckpointError on any malformation). */
    explicit SectionReader(const std::string &path);
    ~SectionReader();

    SectionReader(const SectionReader &) = delete;
    SectionReader &operator=(const SectionReader &) = delete;

    const std::string &path() const { return path_; }
    uint32_t version() const { return version_; }
    uint32_t flags() const { return flags_; }
    uint64_t fileSize() const { return fileSize_; }

    /** The parsed directory, in file order. */
    const std::vector<SectionInfo> &sections() const { return dir_; }

    /** First section matching @p tag (and @p a / @p b when >= 0), or
     * null when absent. */
    const SectionInfo *find(const char *tag, int32_t a = -1,
                            int32_t b = -1) const;

    /** Hydrate one section: positional read + checksum verification.
     * Throws io::CheckpointError on a short read or checksum
     * mismatch. Thread-safe. */
    std::vector<uint8_t> read(const SectionInfo &s) const;

    /** @name Hydration accounting
     * Payload bytes / sections actually read so far — the streaming
     * warm-start evidence (a lazy load reads directory + touched
     * sections, not the file). */
    /** @{ */
    uint64_t bytesRead() const
    {
        return bytesRead_.load(std::memory_order_relaxed);
    }
    uint64_t sectionsRead() const
    {
        return sectionsRead_.load(std::memory_order_relaxed);
    }
    /** @} */

  private:
    std::string path_;
    int fd_ = -1;
    uint64_t fileSize_ = 0;
    uint32_t version_ = 0;
    uint32_t flags_ = 0;
    std::vector<SectionInfo> dir_;
    /** Whole-file buffer when a read fault hook forced the buffered
     * fallback (empty on the pread path). */
    std::vector<uint8_t> buffered_;
    bool useBuffer_ = false;
    mutable std::atomic<uint64_t> bytesRead_{0};
    mutable std::atomic<uint64_t> sectionsRead_{0};

    /** Positional read of [offset, offset+n) into @p out. */
    void readAt(uint64_t offset, size_t n, uint8_t *out) const;
};

} // namespace io
} // namespace twoinone

#endif // TWOINONE_IO_STREAM_HH
