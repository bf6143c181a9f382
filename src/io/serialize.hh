/**
 * @file
 * Binary (de)serialization primitives for model artifacts.
 *
 * Writer accumulates a little-endian byte buffer; Reader walks one
 * with bounds-checked reads. Unlike the rest of the library — where a
 * violated invariant is a bug and panics — a malformed artifact is a
 * *recoverable caller-facing* condition (truncated download, corrupt
 * disk, a checkpoint from a newer format), so the io layer reports it
 * by throwing CheckpointError and leaves the process healthy.
 *
 * Scope: both ends run on little-endian hosts (the x86/ARM targets
 * this repo builds for); values are memcpy'd, not byte-swapped.
 */

#ifndef TWOINONE_IO_SERIALIZE_HH
#define TWOINONE_IO_SERIALIZE_HH

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace twoinone {
namespace io {

/**
 * A model artifact could not be written or read back: missing file,
 * truncation, payload corruption, or an unsupported format version.
 */
class CheckpointError : public std::runtime_error
{
  public:
    explicit CheckpointError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Append-only little-endian byte sink.
 */
class Writer
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void i32(int32_t v) { raw(&v, sizeof(v)); }
    void f32(float v) { raw(&v, sizeof(v)); }

    /** Length-prefixed UTF-8 string. */
    void str(const std::string &s);

    /** Count-prefixed int vector (shapes, precision sets). */
    void intVec(const std::vector<int> &v);

    /** Count-prefixed payload vectors. */
    void f32Vec(const float *data, size_t count);
    void i32Vec(const int32_t *data, size_t count);
    void i16Vec(const int16_t *data, size_t count);
    void i64Vec(const int64_t *data, size_t count);
    void u8Vec(const char *data, size_t count);

    /** Shape + raw float payload of a tensor. */
    void tensor(const Tensor &t);

    const std::vector<uint8_t> &bytes() const { return buf_; }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;

    void raw(const void *p, size_t n);
};

/**
 * Bounds-checked cursor over an in-memory byte buffer (non-owning).
 * Every read past the end throws CheckpointError — a truncated
 * artifact fails loudly at the first missing byte.
 */
class Reader
{
  public:
    Reader(const uint8_t *data, size_t size) : data_(data), size_(size) {}

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();
    int32_t i32();
    float f32();

    std::string str();
    std::vector<int> intVec();
    std::vector<float> f32Vec();
    std::vector<int32_t> i32Vec();
    std::vector<int16_t> i16Vec();
    std::vector<int64_t> i64Vec();
    std::vector<char> u8Vec();
    Tensor tensor();

    size_t offset() const { return off_; }
    size_t remaining() const { return size_ - off_; }
    bool atEnd() const { return off_ == size_; }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t off_ = 0;

    const uint8_t *take(size_t n);
    /** Element count guarded against the bytes actually left. */
    size_t count(size_t elem_size);
};

/** FNV-1a 64-bit hash — the checkpoint payload integrity check. */
uint64_t fnv1a(const uint8_t *data, size_t size);

/**
 * Deterministic fault-injection seam for the scenario harness and the
 * robustness tests (src/harness/fault_injector). When installed, the
 * hooks intercept every readFile/writeFile in this process:
 *
 *  - onRead runs after a successful read and may mutate the bytes in
 *    place (bit flips, truncation) — the caller then parses the
 *    corrupted view exactly as it would a corrupted disk.
 *  - onWrite is consulted before writing; returning a value smaller
 *    than @p size makes writeFile persist only that prefix and then
 *    throw CheckpointError — a crash mid-write, observable on disk.
 *    Return SIZE_MAX (or leave the hook empty) for no fault.
 *
 * Process-global and not thread-safe: install/clear from the single
 * harness/test thread only, never while another thread is inside
 * readFile/writeFile.
 */
struct FaultHooks
{
    std::function<void(const std::string &path,
                       std::vector<uint8_t> &bytes)>
        onRead;
    std::function<size_t(const std::string &path, size_t size)> onWrite;
};

/** Install @p hooks (replacing any previous ones). */
void setFaultHooks(FaultHooks hooks);

/** Remove all installed fault hooks. */
void clearFaultHooks();

/** Whether a read-side fault hook is currently installed. The
 * SectionReader (io/stream.hh) consults this at open time: positional
 * reads would bypass the readFile() seam, so under hooks it falls
 * back to one buffered readFile() pass and serves sections from the
 * (possibly corrupted) buffer — an injected fault lands in the same
 * section, at the same byte, whether the cells load eagerly or
 * lazily. */
bool readFaultHookInstalled();

/** Write a byte buffer to @p path (throws CheckpointError on I/O
 * failure). */
void writeFile(const std::string &path, const std::vector<uint8_t> &bytes);

/** Read a whole file (throws CheckpointError when absent/unreadable). */
std::vector<uint8_t> readFile(const std::string &path);

/**
 * Atomically replace @p path with @p bytes: the payload is written to
 * "<path>.tmp" and renamed over the target, so a crash (or injected
 * write fault) at any point leaves either the previous artifact or
 * the new one at @p path — never a torn prefix. The orphaned temp
 * file is removed best-effort on failure. Throws CheckpointError on
 * any I/O failure.
 */
void writeFileAtomic(const std::string &path,
                     const std::vector<uint8_t> &bytes);

} // namespace io
} // namespace twoinone

#endif // TWOINONE_IO_SERIALIZE_HH
