/**
 * @file
 * Fault injector implementation.
 */

#include "harness/fault_injector.hh"

#include "common/rng.hh"
#include "io/serialize.hh"

namespace twoinone {
namespace harness {

namespace {

/** Mixes the fault coordinate into the scenario seed so two faults in
 * one run corrupt different bytes, deterministically. */
uint64_t
faultSeed(uint64_t seed, const FaultSpec &fault)
{
    return seed ^ 0x9e3779b97f4a7c15ULL ^
           (static_cast<uint64_t>(fault.phase) << 32) ^
           static_cast<uint64_t>(fault.at);
}

} // namespace

void
corruptBytes(std::vector<uint8_t> &bytes, const FaultSpec &fault,
             uint64_t seed)
{
    if (bytes.empty())
        return;
    if (fault.mode == "truncate") {
        bytes.resize(bytes.size() / 2);
        return;
    }
    Rng rng(faultSeed(seed, fault));
    int n = static_cast<int>(bytes.size());
    for (int i = 0; i < fault.flips; ++i) {
        int pos = rng.uniformInt(0, n - 1);
        int bit = rng.uniformInt(0, 7);
        bytes[static_cast<size_t>(pos)] ^=
            static_cast<uint8_t>(1u << bit);
    }
}

FaultInjector::FaultInjector(std::vector<FaultSpec> faults,
                             uint64_t seed, EventJournal &journal)
    : faults_(std::move(faults)), seed_(seed), journal_(journal),
      injected_(std::make_shared<uint64_t>(0))
{
}

FaultInjector::~FaultInjector() { disarm(); }

std::vector<const FaultSpec *>
FaultInjector::at(int phase, int point) const
{
    std::vector<const FaultSpec *> out;
    for (const FaultSpec &f : faults_) {
        if (f.phase == phase && f.at == point)
            out.push_back(&f);
    }
    return out;
}

const FaultSpec *
FaultInjector::find(const std::string &type, int phase, int point) const
{
    for (const FaultSpec &f : faults_) {
        if (f.type == type && f.phase == phase && f.at == point)
            return &f;
    }
    return nullptr;
}

void
FaultInjector::armCorruptRead(const FaultSpec &fault,
                              const std::string &path)
{
    io::FaultHooks hooks;
    FaultSpec spec = fault;
    uint64_t seed = seed_;
    auto injected = injected_;
    // hit lives in the closure state: a transient fault corrupts
    // only the first read after arming — the retry sees clean bytes.
    auto hit = std::make_shared<bool>(false);
    hooks.onRead = [spec, seed, injected, hit,
                    path](const std::string &readPath,
                          std::vector<uint8_t> &bytes) {
        if (readPath != path)
            return;
        if (*hit && !spec.persistent)
            return;
        corruptBytes(bytes, spec, seed);
        if (!*hit)
            ++*injected; // one injection per arming, however many reads
        *hit = true;
    };
    io::setFaultHooks(std::move(hooks));
    armed_ = true;
}

void
FaultInjector::armTornWrite(const std::string &path)
{
    io::FaultHooks hooks;
    auto injected = injected_;
    auto hit = std::make_shared<bool>(false);
    // Atomic saves write "<path>.tmp" then rename — the hook sees the
    // temp path, so match both spellings.
    hooks.onWrite = [injected, hit, path](const std::string &writePath,
                                          size_t size) -> size_t {
        if ((writePath != path && writePath != path + ".tmp") || *hit)
            return size;
        *hit = true;
        ++*injected;
        return size / 2;
    };
    io::setFaultHooks(std::move(hooks));
    armed_ = true;
}

void
FaultInjector::disarm()
{
    if (armed_) {
        io::clearFaultHooks();
        armed_ = false;
    }
}

void
FaultInjector::fired(Json detail)
{
    ++*injected_;
    journal_.emit("fault_injected", std::move(detail));
}

void
FaultInjector::settle(Json detail, bool recovered,
                      const char *recoveredAs)
{
    if (recovered)
        ++recovered_;
    journal_.emit(recovered ? recoveredAs : "fault_unrecovered",
                  std::move(detail));
}

} // namespace harness
} // namespace twoinone
