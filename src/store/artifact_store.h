/// @file
/// ArtifactStore: the versioned, checksummed on-disk tier under the
/// runtime's tuning pipeline.
///
/// PR 1 measured that a warm session's remaining setup cost is the
/// table-size search and calibration, not compilation; this store makes
/// all three durable across processes (autoAx's pre-characterized
/// component library, HPAC-Offload's amortize-tuning-across-runs):
///
///   - vm::Program bytecode (canonical + fused fast streams), plugged in
///     as the second tier of vm::ProgramCache (memory -> disk -> compile);
///   - memo::LookupTable contents with their TableConfig bit assignment,
///     consulted by core::compile_kernel before find_table_for_toq;
///   - calibrated runtime::VariantProfile sets with the fallback order
///     and selection, plus the section that rebuilds a pipeline's or a
///     data tier's variants, restored into a Tuner by runtime::warm_tuner
///     (which serve::ApproxService::register_family calls).
///
/// Records are keyed by ir::fingerprint(module) x kernel name x
/// device-model id x TOQ x metric x store-format version (StoreKey); the
/// canonical key string is embedded in every payload and re-checked on
/// load, so a filename-hash collision is a miss, not a wrong answer.
/// Writes are atomic (temp file + rename); reads reject bad magic,
/// version, checksum, or truncation as plain misses.

#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/precision_plan.h"
#include "memo/table.h"
#include "runtime/tuner.h"
#include "store/format.h"
#include "vm/bytecode.h"

namespace paraprox::store {

/// What a stored artifact was produced from.  Fields irrelevant to an
/// artifact kind stay at their defaults (bytecode has no device or TOQ);
/// the format version participates implicitly — records from other
/// versions never decode.
struct StoreKey {
    std::uint64_t module_fingerprint = 0;
    std::string kernel;
    std::string device;  ///< DeviceModel::name; empty for bytecode.
    double toq = 0.0;    ///< 0 when quality-independent (bytecode).
    std::string metric;  ///< runtime metric name; empty unless calibration.
    std::string detail;  ///< Kind-specific discriminator, e.g. "memo:cnd#0".

    /// Deterministic human-readable form; embedded in payloads and used
    /// for the filename hash.
    std::string canonical() const;
    std::uint64_t hash() const;
};

/// Per-store counters (atomics; read with stats()).
struct StoreStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;           ///< No file under the key.
    std::uint64_t corrupt_rejects = 0;  ///< Bad frame/decode/key echo.
    std::uint64_t writes = 0;
    std::uint64_t write_failures = 0;
};

/// A persisted variant-family calibration: what
/// Tuner::calibration_state() captures and Tuner::restore_calibration()
/// re-validates and installs, plus at most one section describing the
/// family's variants so a warm start can rebuild them without a search.
/// A plain kernel family carries no section.  Both sections are
/// index-aligned with calibration.profiles.
struct CalibrationRecord {
    runtime::CalibrationState calibration;
    double toq = 0.0;
    std::string metric;

    /// Pipeline section (empty otherwise): the chain's stage names, and
    /// configs[i][s] = member label of stage s in joint config i;
    /// configs[0] is the all-exact config.
    std::vector<std::string> stage_names;
    std::vector<std::vector<std::string>> configs;

    /// Data-tier section (empty otherwise): every enumerated per-buffer
    /// codec plan with its fitted int8 parameters; plans[0] is the
    /// mandatory all-exact fallback, with no assignments.
    std::vector<data::PrecisionPlan> plans;
};

/// A fleet-shared calibration, published once per drift event by the
/// replica that won the drift lease and adopted by every peer.  The
/// version is monotonic per key — publishers go through
/// publish_fleet_calibration, whose version check and write are one
/// step, so a sweep that outlived its lease cannot clobber the peer
/// that took the lease over — and peers poll it
/// (fleet_calibration_version) to detect a publish without paying a full
/// decode.  Quarantine verdicts ride along so a variant one replica
/// proved unsafe is benched fleet-wide.
struct FleetCalibrationArtifact {
    std::uint64_t version = 0;
    runtime::CalibrationState calibration;
    std::vector<std::string> quarantined;  ///< Benched variant labels.
    double toq = 0.0;
    std::string metric;
};

/// A decoded drift lease.
struct LeaseInfo {
    std::string owner;            ///< Replica id that holds the lease.
    std::uint64_t expires_ms = 0; ///< system_clock epoch milliseconds.
    std::uint64_t token = 0;      ///< Unique per acquisition (release check).
};

class ArtifactStore {
  public:
    /// Opens (creating if needed) the store at @p dir.  A directory that
    /// cannot be created leaves the store functional but write-dead
    /// (every load is a miss, every save reports failure).
    explicit ArtifactStore(std::filesystem::path dir);

    const std::filesystem::path& dir() const { return dir_; }

    std::optional<vm::Program> load_program(const StoreKey& key) const;
    bool save_program(const StoreKey& key, const vm::Program& program) const;

    std::optional<memo::LookupTable> load_table(const StoreKey& key) const;
    bool save_table(const StoreKey& key,
                    const memo::LookupTable& table) const;

    std::optional<CalibrationRecord>
    load_calibration(const StoreKey& key) const;
    bool save_calibration(const StoreKey& key,
                          const CalibrationRecord& record) const;

    /// load_calibration() under its pre-merge name.  perfbench is the
    /// only caller; the benchmark change that migrates perfbench
    /// deletes it.
    std::optional<CalibrationRecord>
    load_pipeline_calibration(const StoreKey& key) const
    {
        return load_calibration(key);
    }

    /// load_calibration() under its pre-merge name.  perfbench is the
    /// only caller; the benchmark change that migrates perfbench
    /// deletes it.
    std::optional<CalibrationRecord>
    load_precision_calibration(const StoreKey& key) const
    {
        return load_calibration(key);
    }

    // ---- Scale-out calibration plane ---------------------------------

    std::optional<FleetCalibrationArtifact>
    load_fleet_calibration(const StoreKey& key) const;
    bool save_fleet_calibration(const StoreKey& key,
                                const FleetCalibrationArtifact& artifact)
        const;

    struct FleetPublishResult {
        bool published = false;     ///< @p artifact is now the fleet's.
        std::uint64_t version = 0;  ///< Fleet version after the call.
    };

    /// Publish @p artifact as version base + 1 unless the fleet already
    /// moved past @p base (a peer published first: result.version >
    /// base, nothing written).  The check and the write run under an
    /// exclusive flock on a sidecar file, so two publishers from the
    /// same base — in one process or many — cannot both win.
    FleetPublishResult
    publish_fleet_calibration(const StoreKey& key, std::uint64_t base,
                              FleetCalibrationArtifact artifact) const;

    /// The published version under @p key, or 0 when no (valid) record
    /// exists.  This is the replicas' watch poll: it runs every few tens
    /// of milliseconds per tracked kernel, so unlike the load_* family
    /// it deliberately does not count hits/misses.
    std::uint64_t fleet_calibration_version(const StoreKey& key) const;

    /// Try to acquire the drift lease for @p key on behalf of @p owner,
    /// valid for @p ttl_ms.  Returns the lease token on success, nullopt
    /// when a live peer holds it.  Creation is O_CREAT|O_EXCL so
    /// concurrent acquirers race safely; an expired or undecodable lease
    /// is stolen through an exclusive rename (only one stealer's rename
    /// succeeds), so a replica that died mid-recalibration blocks peers
    /// only until its lease expires.
    std::optional<std::uint64_t>
    try_acquire_lease(const StoreKey& key, const std::string& owner,
                      std::uint64_t ttl_ms) const;

    /// Release the lease if it is still ours: the on-disk owner and
    /// token must both match (the token guards the ABA case where our
    /// expired lease was stolen and re-acquired by the same owner id).
    void release_lease(const StoreKey& key, const std::string& owner,
                       std::uint64_t token) const;

    /// Decode the current lease under @p key, if any (diagnostics).
    std::optional<LeaseInfo> read_lease(const StoreKey& key) const;

    /// One store file, as seen by list()/verify/prune.
    struct Entry {
        std::filesystem::path file;
        ArtifactKind kind{};
        std::string key;  ///< Canonical key (empty if undecodable).
        std::uintmax_t size_bytes = 0;
        bool valid = false;
    };

    /// Every record file in the directory, with validation verdicts.
    std::vector<Entry> list() const;

    /// Delete invalid record files (and stray temp files); @p everything
    /// deletes valid records too.  Returns the number removed.
    std::size_t prune(bool everything = false) const;

    StoreStats stats() const;

    /// Where an artifact under @p key lives (exists or not).
    std::filesystem::path path_for(const StoreKey& key,
                                   ArtifactKind kind) const;

    // ---- Global store -------------------------------------------------
    //
    // The process-wide store is configured from PARAPROX_STORE_DIR on
    // first use (unset -> disabled, global() == nullptr) and attaches
    // itself as vm::ProgramCache's disk tier.  configure_global /
    // disable_global override it (tools, benches, tests).

    static std::shared_ptr<ArtifactStore> global();
    static std::shared_ptr<ArtifactStore>
    configure_global(const std::filesystem::path& dir);
    static void disable_global();

  private:
    std::optional<std::vector<std::uint8_t>>
    load_payload(const StoreKey& key, ArtifactKind kind) const;
    bool save_payload(const StoreKey& key, ArtifactKind kind,
                      const std::vector<std::uint8_t>& payload) const;

    std::filesystem::path dir_;

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    mutable std::atomic<std::uint64_t> corrupt_rejects_{0};
    mutable std::atomic<std::uint64_t> writes_{0};
    mutable std::atomic<std::uint64_t> write_failures_{0};
};

/// The key under which ProgramCache's disk tier files @p kernel_name of
/// the module with @p fingerprint.
StoreKey program_key(std::uint64_t fingerprint,
                     const std::string& kernel_name);

/// Decode a calibration payload without knowing its key (the embedded
/// canonical key is reported through @p key_out instead of verified) —
/// for inspection tools rendering arbitrary records.
std::optional<CalibrationRecord>
inspect_calibration(const std::vector<std::uint8_t>& payload,
                    std::string* key_out);

}  // namespace paraprox::store
