#include "store/artifact_store.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "support/faultinject.h"
#include "vm/program_cache.h"

namespace paraprox::store {

namespace {

const char*
kind_prefix(ArtifactKind kind)
{
    switch (kind) {
        case ArtifactKind::Program: return "prog";
        case ArtifactKind::Table: return "table";
        case ArtifactKind::Calibration: return "calib";
        case ArtifactKind::FleetCalibration: return "fleet";
    }
    return "unknown";
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
format_double(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

// ---- Payload codecs --------------------------------------------------------
//
// Every payload starts with the canonical key string, so a filename-hash
// collision (or a hand-renamed file) is detected and treated as a miss.

void
encode_instr(ByteWriter& w, const vm::Instr& instr)
{
    w.u8(static_cast<std::uint8_t>(instr.op));
    w.i32(instr.a);
    w.i32(instr.b);
    w.i32(instr.c);
    w.i32(instr.d);
    std::uint32_t imm_bits;
    std::memcpy(&imm_bits, &instr.imm, sizeof imm_bits);
    w.u32(imm_bits);
}

bool
decode_instr(ByteReader& r, bool fast_stream, vm::Instr& out)
{
    const std::uint8_t op = r.u8();
    const int limit =
        fast_stream ? vm::kNumOpcodes : vm::kNumCanonicalOpcodes;
    if (op >= static_cast<std::uint8_t>(limit))
        return false;
    out.op = static_cast<vm::Opcode>(op);
    out.a = r.i32();
    out.b = r.i32();
    out.c = r.i32();
    out.d = r.i32();
    const std::uint32_t imm_bits = r.u32();
    std::memcpy(&out.imm, &imm_bits, sizeof out.imm);
    return r.ok();
}

constexpr std::size_t kInstrBytes = 1 + 4 * 4 + 4;

std::vector<std::uint8_t>
encode_program(const StoreKey& key, const vm::Program& program)
{
    ByteWriter w;
    w.str(key.canonical());
    w.str(program.kernel_name);
    w.i32(program.num_regs);
    w.u8(program.has_barrier ? 1 : 0);
    w.u64(program.code.size());
    for (const auto& instr : program.code)
        encode_instr(w, instr);
    w.u64(program.fast_code.size());
    for (const auto& instr : program.fast_code)
        encode_instr(w, instr);
    w.u64(program.buffers.size());
    for (const auto& buffer : program.buffers) {
        w.str(buffer.name);
        w.u32(static_cast<std::uint32_t>(buffer.elem));
        w.u32(static_cast<std::uint32_t>(buffer.space));
    }
    w.u64(program.scalars.size());
    for (const auto& scalar : program.scalars) {
        w.str(scalar.name);
        w.u32(static_cast<std::uint32_t>(scalar.scalar));
        w.i32(scalar.reg);
    }
    return w.bytes();
}

std::optional<vm::Program>
decode_program(const StoreKey& key,
               const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    if (r.str() != key.canonical())
        return std::nullopt;
    vm::Program program;
    program.kernel_name = r.str();
    program.num_regs = r.i32();
    program.has_barrier = r.u8() != 0;
    if (!r.ok() || program.num_regs < 0 ||
        program.num_regs > (1 << 20))
        return std::nullopt;

    const std::size_t code_count = r.count(kInstrBytes);
    program.code.resize(code_count);
    for (auto& instr : program.code) {
        if (!decode_instr(r, /*fast_stream=*/false, instr))
            return std::nullopt;
    }
    const std::size_t fast_count = r.count(kInstrBytes);
    program.fast_code.resize(fast_count);
    for (auto& instr : program.fast_code) {
        if (!decode_instr(r, /*fast_stream=*/true, instr))
            return std::nullopt;
    }

    const std::size_t buffer_count = r.count(1);
    program.buffers.resize(buffer_count);
    for (auto& buffer : program.buffers) {
        buffer.name = r.str();
        const std::uint32_t elem = r.u32();
        const std::uint32_t space = r.u32();
        if (elem > static_cast<std::uint32_t>(ir::Scalar::F32) ||
            space > static_cast<std::uint32_t>(ir::AddrSpace::Constant))
            return std::nullopt;
        buffer.elem = static_cast<ir::Scalar>(elem);
        buffer.space = static_cast<ir::AddrSpace>(space);
    }
    const std::size_t scalar_count = r.count(1);
    program.scalars.resize(scalar_count);
    for (auto& scalar : program.scalars) {
        scalar.name = r.str();
        const std::uint32_t kind = r.u32();
        if (kind > static_cast<std::uint32_t>(ir::Scalar::F32))
            return std::nullopt;
        scalar.scalar = static_cast<ir::Scalar>(kind);
        scalar.reg = r.i32();
    }
    if (!r.at_end())
        return std::nullopt;
    return program;
}

std::vector<std::uint8_t>
encode_table(const StoreKey& key, const memo::LookupTable& table)
{
    ByteWriter w;
    w.str(key.canonical());
    w.u64(table.config.inputs.size());
    for (const auto& input : table.config.inputs) {
        w.str(input.name);
        w.f32(input.lo);
        w.f32(input.hi);
        w.i32(input.bits);
        w.u8(input.is_constant ? 1 : 0);
        w.f32(input.constant_value);
    }
    w.f64(table.tuned_quality);
    w.u64(table.values.size());
    for (const float v : table.values)
        w.f32(v);
    return w.bytes();
}

std::optional<memo::LookupTable>
decode_table(const StoreKey& key, const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    if (r.str() != key.canonical())
        return std::nullopt;
    memo::LookupTable table;
    const std::size_t input_count = r.count(1);
    table.config.inputs.resize(input_count);
    for (auto& input : table.config.inputs) {
        input.name = r.str();
        input.lo = r.f32();
        input.hi = r.f32();
        input.bits = r.i32();
        input.is_constant = r.u8() != 0;
        input.constant_value = r.f32();
        if (!r.ok() || input.bits < 0 || input.bits > 24)
            return std::nullopt;
    }
    table.tuned_quality = r.f64();
    const std::size_t value_count = r.count(sizeof(float));
    table.values.resize(value_count);
    for (float& v : table.values)
        v = r.f32();
    if (!r.at_end())
        return std::nullopt;
    // The address space and the stored contents must agree, or lookups
    // would index out of range.
    if (table.config.address_bits() > 24 ||
        static_cast<std::int64_t>(table.values.size()) !=
            table.config.table_size())
        return std::nullopt;
    return table;
}

void
encode_calibration_state(ByteWriter& w,
                         const runtime::CalibrationState& calibration)
{
    w.u64(calibration.profiles.size());
    for (const auto& profile : calibration.profiles) {
        w.str(profile.label);
        w.f64(profile.speedup);
        w.f64(profile.wall_speedup);
        w.f64(profile.quality);
        w.u8(profile.meets_toq ? 1 : 0);
        w.u8(profile.trapped ? 1 : 0);
    }
    w.u64(calibration.fallback_order.size());
    for (const int index : calibration.fallback_order)
        w.i32(index);
    w.i32(calibration.selected);
}

/// Structural sanity only; Tuner::restore_calibration re-validates
/// against the live variant list before installing anything.
bool
decode_calibration_state(ByteReader& r,
                         runtime::CalibrationState& calibration)
{
    const std::size_t profile_count = r.count(1);
    calibration.profiles.resize(profile_count);
    for (auto& profile : calibration.profiles) {
        profile.label = r.str();
        profile.speedup = r.f64();
        profile.wall_speedup = r.f64();
        profile.quality = r.f64();
        profile.meets_toq = r.u8() != 0;
        profile.trapped = r.u8() != 0;
    }
    const std::size_t order_count = r.count(4);
    calibration.fallback_order.resize(order_count);
    for (int& index : calibration.fallback_order)
        index = r.i32();
    calibration.selected = r.i32();
    if (!r.ok())
        return false;
    const int size = static_cast<int>(calibration.profiles.size());
    if (calibration.selected < 0 || calibration.selected >= size)
        return false;
    for (const int index : calibration.fallback_order) {
        if (index < 0 || index >= size)
            return false;
    }
    return true;
}

std::vector<std::uint8_t>
encode_calibration(const StoreKey& key, const CalibrationRecord& record)
{
    ByteWriter w;
    w.str(key.canonical());
    encode_calibration_state(w, record.calibration);
    w.f64(record.toq);
    w.str(record.metric);
    w.u64(record.stage_names.size());
    for (const auto& name : record.stage_names)
        w.str(name);
    w.u64(record.configs.size());
    for (const auto& config : record.configs) {
        w.u64(config.size());
        for (const auto& label : config)
            w.str(label);
    }
    w.u64(record.plans.size());
    for (const auto& plan : record.plans) {
        w.str(plan.label);
        w.u64(plan.assignments.size());
        for (const auto& assignment : plan.assignments) {
            w.str(assignment.buffer);
            w.u8(static_cast<std::uint8_t>(assignment.codec));
            w.f32(assignment.quant.scale);
            w.f32(assignment.quant.zero);
        }
    }
    return w.bytes();
}

/// Shared by the store's keyed load (@p expected_key set) and the
/// inspection tool's unkeyed decode.
std::optional<CalibrationRecord>
decode_calibration(const std::vector<std::uint8_t>& payload,
                   const std::string* expected_key, std::string* key_out)
{
    ByteReader r(payload.data(), payload.size());
    const std::string embedded = r.str();
    if (key_out != nullptr)
        *key_out = embedded;
    if (expected_key != nullptr && embedded != *expected_key)
        return std::nullopt;
    CalibrationRecord record;
    if (!decode_calibration_state(r, record.calibration))
        return std::nullopt;
    record.toq = r.f64();
    record.metric = r.str();

    record.stage_names.resize(r.count(1));
    for (auto& name : record.stage_names)
        name = r.str();
    record.configs.resize(r.count(1));
    for (auto& config : record.configs) {
        config.resize(r.count(1));
        for (auto& label : config)
            label = r.str();
        if (config.size() != record.stage_names.size())
            return std::nullopt;
    }

    record.plans.resize(r.count(1));
    for (auto& plan : record.plans) {
        plan.label = r.str();
        plan.assignments.resize(r.count(1));
        for (auto& assignment : plan.assignments) {
            assignment.buffer = r.str();
            const std::uint8_t codec = r.u8();
            if (codec >= data::kNumCodecs)
                return std::nullopt;
            assignment.codec = static_cast<data::Codec>(codec);
            assignment.quant.scale = r.f32();
            assignment.quant.zero = r.f32();
            // A corrupt scale must not survive into live packing: int8
            // decoding multiplies by it on every load.
            if (assignment.codec == data::Codec::Int8 &&
                !(std::isfinite(assignment.quant.scale) &&
                  assignment.quant.scale > 0.0f &&
                  std::isfinite(assignment.quant.zero)))
                return std::nullopt;
        }
    }
    if (!r.at_end())
        return std::nullopt;

    // At most one section, index-aligned with the profiles: every joint
    // config backs one profile, and the all-exact plan leads.
    const std::size_t profiles = record.calibration.profiles.size();
    const bool pipeline =
        !record.stage_names.empty() || !record.configs.empty();
    const bool tier = !record.plans.empty();
    if (pipeline && tier)
        return std::nullopt;
    if (pipeline && (record.stage_names.empty() ||
                     record.configs.size() != profiles))
        return std::nullopt;
    if (tier && (record.plans.size() != profiles ||
                 !record.plans.front().all_exact()))
        return std::nullopt;
    return record;
}

std::vector<std::uint8_t>
encode_fleet_calibration(const StoreKey& key,
                         const FleetCalibrationArtifact& artifact)
{
    ByteWriter w;
    w.str(key.canonical());
    w.u64(artifact.version);
    w.f64(artifact.toq);
    w.str(artifact.metric);
    w.u64(artifact.quarantined.size());
    for (const auto& label : artifact.quarantined)
        w.str(label);
    encode_calibration_state(w, artifact.calibration);
    return w.bytes();
}

std::optional<FleetCalibrationArtifact>
decode_fleet_calibration(const StoreKey& key,
                         const std::vector<std::uint8_t>& payload)
{
    ByteReader r(payload.data(), payload.size());
    if (r.str() != key.canonical())
        return std::nullopt;
    FleetCalibrationArtifact artifact;
    artifact.version = r.u64();
    artifact.toq = r.f64();
    artifact.metric = r.str();
    const std::size_t quarantined = r.count(1);
    artifact.quarantined.resize(quarantined);
    for (auto& label : artifact.quarantined)
        label = r.str();
    if (!decode_calibration_state(r, artifact.calibration) || !r.at_end())
        return std::nullopt;
    if (artifact.version == 0)
        return std::nullopt;  // 0 is the "nothing published" sentinel.
    return artifact;
}

}  // namespace

std::optional<CalibrationRecord>
inspect_calibration(const std::vector<std::uint8_t>& payload,
                    std::string* key_out)
{
    return decode_calibration(payload, nullptr, key_out);
}

// ---- StoreKey --------------------------------------------------------------

std::string
StoreKey::canonical() const
{
    return "v" + std::to_string(kFormatVersion) + "|fp=" +
           hex16(module_fingerprint) + "|kernel=" + kernel + "|dev=" +
           device + "|toq=" + format_double(toq) + "|metric=" + metric +
           "|detail=" + detail;
}

std::uint64_t
StoreKey::hash() const
{
    const std::string c = canonical();
    return fnv1a64(c.data(), c.size());
}

StoreKey
program_key(std::uint64_t fingerprint, const std::string& kernel_name)
{
    StoreKey key;
    key.module_fingerprint = fingerprint;
    key.kernel = kernel_name;
    key.detail = "program";
    return key;
}

// ---- ArtifactStore ---------------------------------------------------------

ArtifactStore::ArtifactStore(std::filesystem::path dir)
    : dir_(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
}

std::filesystem::path
ArtifactStore::path_for(const StoreKey& key, ArtifactKind kind) const
{
    return dir_ / (std::string(kind_prefix(kind)) + "-" +
                   hex16(key.hash()) + ".ppx");
}

std::optional<std::vector<std::uint8_t>>
ArtifactStore::load_payload(const StoreKey& key, ArtifactKind kind) const
{
    auto file = read_file_bytes(path_for(key, kind));
    if (!file) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    // Chaos-testing site: flip one byte mid-record so the load exercises
    // the real checksum-rejection path rather than a synthetic error.
    if (!file->empty() && fault::fire("store.corrupt", key.canonical()))
        (*file)[file->size() / 2] ^= 0x40;
    auto payload = decode_record(*file, kind);
    if (!payload)
        corrupt_rejects_.fetch_add(1, std::memory_order_relaxed);
    return payload;
}

bool
ArtifactStore::save_payload(const StoreKey& key, ArtifactKind kind,
                            const std::vector<std::uint8_t>& payload) const
{
    const bool ok =
        write_file_atomic(path_for(key, kind), encode_record(kind, payload));
    (ok ? writes_ : write_failures_).fetch_add(1,
                                               std::memory_order_relaxed);
    return ok;
}

std::optional<vm::Program>
ArtifactStore::load_program(const StoreKey& key) const
{
    const auto payload = load_payload(key, ArtifactKind::Program);
    if (!payload)
        return std::nullopt;
    auto program = decode_program(key, *payload);
    (program ? hits_ : corrupt_rejects_)
        .fetch_add(1, std::memory_order_relaxed);
    return program;
}

bool
ArtifactStore::save_program(const StoreKey& key,
                            const vm::Program& program) const
{
    return save_payload(key, ArtifactKind::Program,
                        encode_program(key, program));
}

std::optional<memo::LookupTable>
ArtifactStore::load_table(const StoreKey& key) const
{
    const auto payload = load_payload(key, ArtifactKind::Table);
    if (!payload)
        return std::nullopt;
    auto table = decode_table(key, *payload);
    (table ? hits_ : corrupt_rejects_)
        .fetch_add(1, std::memory_order_relaxed);
    return table;
}

bool
ArtifactStore::save_table(const StoreKey& key,
                          const memo::LookupTable& table) const
{
    return save_payload(key, ArtifactKind::Table,
                        encode_table(key, table));
}

std::optional<CalibrationRecord>
ArtifactStore::load_calibration(const StoreKey& key) const
{
    const auto payload = load_payload(key, ArtifactKind::Calibration);
    if (!payload)
        return std::nullopt;
    const std::string canonical = key.canonical();
    auto record = decode_calibration(*payload, &canonical, nullptr);
    (record ? hits_ : corrupt_rejects_)
        .fetch_add(1, std::memory_order_relaxed);
    return record;
}

bool
ArtifactStore::save_calibration(const StoreKey& key,
                                const CalibrationRecord& record) const
{
    return save_payload(key, ArtifactKind::Calibration,
                        encode_calibration(key, record));
}

std::optional<FleetCalibrationArtifact>
ArtifactStore::load_fleet_calibration(const StoreKey& key) const
{
    const auto payload = load_payload(key, ArtifactKind::FleetCalibration);
    if (!payload)
        return std::nullopt;
    auto artifact = decode_fleet_calibration(key, *payload);
    (artifact ? hits_ : corrupt_rejects_)
        .fetch_add(1, std::memory_order_relaxed);
    return artifact;
}

FleetLock::FleetLock(FleetLock&& other) noexcept
    : key_(std::move(other.key_)), path_(std::move(other.path_)),
      fd_(other.fd_), state_(other.state_)
{
    other.fd_ = -1;
    other.state_ = State::Unavailable;
}

FleetLock&
FleetLock::operator=(FleetLock&& other) noexcept
{
    if (this != &other) {
        if (fd_ >= 0)
            ::close(fd_);  // Drops the lock.
        key_ = std::move(other.key_);
        path_ = std::move(other.path_);
        fd_ = other.fd_;
        state_ = other.state_;
        other.fd_ = -1;
        other.state_ = State::Unavailable;
    }
    return *this;
}

FleetLock::~FleetLock()
{
    if (fd_ >= 0)
        ::close(fd_);  // Drops the lock.
}

std::filesystem::path
ArtifactStore::fleet_lock_path(const StoreKey& key) const
{
    return path_for(key, ArtifactKind::FleetCalibration).string() + ".lock";
}

FleetLock
ArtifactStore::try_lock_fleet(const StoreKey& key) const
{
    FleetLock lock;
    lock.key_ = key;
    lock.path_ = fleet_lock_path(key);
    const int fd =
        ::open(lock.path_.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0)
        return lock;
    int rc;
    while ((rc = ::flock(fd, LOCK_EX | LOCK_NB)) != 0 && errno == EINTR) {
    }
    if (rc == 0) {
        lock.fd_ = fd;
        lock.state_ = FleetLock::State::Held;
        return lock;
    }
    if (errno == EWOULDBLOCK)
        lock.state_ = FleetLock::State::Contended;
    ::close(fd);
    return lock;
}

std::uint64_t
ArtifactStore::publish_fleet_calibration(
    const FleetLock& lock, FleetCalibrationArtifact artifact) const
{
    if (!lock.held() || lock.path_ != fleet_lock_path(lock.key_))
        return 0;
    artifact.version = fleet_calibration_version(lock.key_) + 1;
    return save_payload(lock.key_, ArtifactKind::FleetCalibration,
                        encode_fleet_calibration(lock.key_, artifact))
               ? artifact.version
               : 0;
}

std::uint64_t
ArtifactStore::fleet_calibration_version(const StoreKey& key) const
{
    // The watch poll: deliberately uncounted (it runs every few tens of
    // milliseconds per tracked kernel) and decoding only far enough to
    // pull the version stamp.
    const auto file =
        read_file_bytes(path_for(key, ArtifactKind::FleetCalibration));
    if (!file)
        return 0;
    const auto payload = decode_record(*file, ArtifactKind::FleetCalibration);
    if (!payload)
        return 0;
    ByteReader r(payload->data(), payload->size());
    if (r.str() != key.canonical())
        return 0;
    const std::uint64_t version = r.u64();
    return r.ok() ? version : 0;
}

std::vector<ArtifactStore::Entry>
ArtifactStore::list() const
{
    std::vector<Entry> out;
    std::error_code ec;
    for (const auto& dirent :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!dirent.is_regular_file() ||
            dirent.path().extension() != ".ppx")
            continue;
        Entry entry;
        entry.file = dirent.path();
        entry.size_bytes = dirent.file_size(ec);
        const auto file = read_file_bytes(entry.file);
        if (file) {
            const RecordInfo info = probe_record(*file);
            entry.kind = info.kind;
            entry.valid = info.valid;
            if (info.valid) {
                // The canonical key leads every payload.
                if (auto payload = decode_record(*file, info.kind)) {
                    ByteReader r(payload->data(), payload->size());
                    entry.key = r.str();
                    if (!r.ok())
                        entry.valid = false;
                }
            }
        }
        out.push_back(std::move(entry));
    }
    std::sort(out.begin(), out.end(),
              [](const Entry& a, const Entry& b) { return a.file < b.file; });
    return out;
}

std::size_t
ArtifactStore::prune(bool everything) const
{
    std::size_t removed = 0;
    std::error_code ec;
    // Stray temp files (a writer died mid-save) always go.
    for (const auto& dirent :
         std::filesystem::directory_iterator(dir_, ec)) {
        if (!dirent.is_regular_file())
            continue;
        const std::string name = dirent.path().filename().string();
        if (name.find(".ppx.tmp") != std::string::npos) {
            if (std::filesystem::remove(dirent.path(), ec))
                ++removed;
        }
    }
    for (const Entry& entry : list()) {
        if (entry.valid && !everything)
            continue;
        if (std::filesystem::remove(entry.file, ec))
            ++removed;
    }
    return removed;
}

StoreStats
ArtifactStore::stats() const
{
    StoreStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.corrupt_rejects = corrupt_rejects_.load(std::memory_order_relaxed);
    out.writes = writes_.load(std::memory_order_relaxed);
    out.write_failures = write_failures_.load(std::memory_order_relaxed);
    return out;
}

// ---- Global store ----------------------------------------------------------

namespace {

/// ProgramCache's second tier: (fingerprint, kernel) -> stored bytecode.
class StoreDiskTier final : public vm::ProgramCache::DiskTier {
  public:
    explicit StoreDiskTier(std::shared_ptr<ArtifactStore> store)
        : store_(std::move(store))
    {
    }

    std::optional<vm::Program>
    load(std::uint64_t fingerprint, const std::string& kernel_name) override
    {
        return store_->load_program(program_key(fingerprint, kernel_name));
    }

    void
    save(std::uint64_t fingerprint, const std::string& kernel_name,
         const vm::Program& program) override
    {
        store_->save_program(program_key(fingerprint, kernel_name),
                             program);
    }

  private:
    std::shared_ptr<ArtifactStore> store_;
};

std::mutex g_global_mutex;
std::shared_ptr<ArtifactStore> g_global_store;
bool g_global_resolved = false;

}  // namespace

std::shared_ptr<ArtifactStore>
ArtifactStore::global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    if (!g_global_resolved) {
        g_global_resolved = true;
        if (const char* dir = std::getenv("PARAPROX_STORE_DIR");
            dir != nullptr && *dir != '\0') {
            g_global_store = std::make_shared<ArtifactStore>(dir);
            vm::ProgramCache::global().set_disk_tier(
                std::make_shared<StoreDiskTier>(g_global_store));
        }
    }
    return g_global_store;
}

std::shared_ptr<ArtifactStore>
ArtifactStore::configure_global(const std::filesystem::path& dir)
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_global_resolved = true;
    g_global_store = std::make_shared<ArtifactStore>(dir);
    vm::ProgramCache::global().set_disk_tier(
        std::make_shared<StoreDiskTier>(g_global_store));
    return g_global_store;
}

void
ArtifactStore::disable_global()
{
    std::lock_guard<std::mutex> lock(g_global_mutex);
    g_global_resolved = true;
    g_global_store.reset();
    vm::ProgramCache::global().set_disk_tier(nullptr);
}

}  // namespace paraprox::store
