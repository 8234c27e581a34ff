/// @file
/// KernelSession: one object owning a compiled kernel family end-to-end.
///
/// Callers used to hand-wire the same pipeline everywhere: run
/// core::compile_kernel, lower the exact kernel plus every generated
/// variant to bytecode, remember which lookup tables each variant needs,
/// bind them at every launch, and finally wrap the lot as
/// runtime::Variant closures for the tuner.  A KernelSession does all of
/// that once.  Bytecode is shared process-wide through vm::ProgramCache,
/// so constructing a second session over the same module costs no
/// recompilation, and table buffers are auto-bound into the ArgPack on
/// every run.
///
///     ir::Module -> KernelSession -> variants()/tuner() -> calibrate.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/paraprox.h"
#include "core/variants.h"
#include "runtime/tuner.h"
#include "store/artifact_store.h"
#include "vm/bytecode.h"

namespace paraprox::runtime {

/// One launchable member of the family: the exact kernel or a generated
/// approximate variant, with its bytecode compiled and its table bindings
/// recorded.
struct SessionMember {
    std::string label;            ///< "exact" or the generated label.
    int aggressiveness = 0;
    std::string kernel_name;
    std::shared_ptr<const vm::Program> program;  ///< Cache-shared bytecode.
    std::vector<core::TableBinding> tables;      ///< Empty unless memoized.
};

/// Compile -> bind -> launch -> tune, unified.
///
/// The module reference passed to the constructor must outlive the
/// session (generated variants own their rewritten modules internally).
class KernelSession {
  public:
    KernelSession(const ir::Module& module, std::string kernel,
                  core::CompileOptions options);

    KernelSession(const KernelSession&) = delete;
    KernelSession& operator=(const KernelSession&) = delete;

    /// What the Paraprox compiler produced (detection, variants, notes).
    const core::KernelCompileResult& result() const { return result_; }

    /// Every launchable member; members()[0] is the exact kernel.
    const std::vector<SessionMember>& members() const { return members_; }

    /// The member whose label is @p label, or nullptr.
    const SessionMember* find_member(const std::string& label) const;

    /// Compiled bytecode for @p kernel_name of the session's source
    /// module, through the process-wide program cache.
    std::shared_ptr<const vm::Program>
    program(const std::string& kernel_name) const;

    const ir::Module& module() const { return *module_; }
    const std::string& kernel() const { return kernel_; }
    const core::CompileOptions& options() const { return options_; }

    /// Tuner-ready variant list over @p plan, index-aligned with
    /// members(); variants[0] is exact.  Each variant binds the plan's
    /// inputs and auto-binds its member's lookup tables on every run.
    /// The returned closures share ownership of the cached programs and
    /// copied table bindings, so they stay valid after the session is
    /// destroyed.
    std::vector<Variant> variants(const core::LaunchPlan& plan) const;

    /// One-call convenience: variants(plan) wrapped in a Tuner.  The TOQ
    /// defaults to the session's CompileOptions::toq when negative.
    Tuner tuner(const core::LaunchPlan& plan, Metric metric,
                double toq_percent = -1.0, int check_interval = 50) const;

    /// ir::fingerprint of the source module, computed once.
    std::uint64_t fingerprint() const { return fingerprint_; }

    /// The store key under which this session's calibration is persisted:
    /// module fingerprint x kernel x device-model id x TOQ x metric
    /// (x store-format version, implicitly).  kernel_family() takes it.
    store::StoreKey calibration_key(Metric metric,
                                    double toq_percent = -1.0) const;

  private:
    const ir::Module* module_;
    std::string kernel_;
    core::CompileOptions options_;
    core::KernelCompileResult result_;
    std::vector<SessionMember> members_;
    std::uint64_t fingerprint_ = 0;
};

class PipelineStats;

/// Anything ApproxService can register: a plain variant list, a pipeline
/// (PipelineSession::family) or a data tier (data_tier_family).  Three
/// things describe it — where its calibration is stored, how to build
/// its variants cold, and how to rebuild them from a stored record — and
/// warm_tuner() is the one routine that uses them.
struct VariantFamily {
    enum class Kind { Kernel, Pipeline, DataTier };
    /// ApproxService counts warm restores per kind.
    Kind kind = Kind::Kernel;
    /// Store key of the family's calibration record; none = never stored.
    std::optional<store::StoreKey> key;
    /// Cold path: the variant list (variants[0] exact), writing the
    /// record section that describes it into @p record.
    std::function<std::vector<Variant>(store::CalibrationRecord& record)>
        build;
    /// Warm path: the variant list a stored record's section describes,
    /// or an empty list when the record does not fit the live family.
    std::function<std::vector<Variant>(
        const store::CalibrationRecord& record)>
        rebuild;
    /// Per-stage trap attribution; null unless a pipeline.
    std::shared_ptr<const PipelineStats> stages;
};

/// @p variants as a family with no record section.  For a session, pass
/// session.variants(plan) and session.calibration_key(metric, toq).
VariantFamily kernel_family(std::vector<Variant> variants,
                            std::optional<store::StoreKey> key = {});

/// A calibrated tuner and where its calibration came from.
struct WarmTuner {
    std::unique_ptr<Tuner> tuner;
    bool warm = false;  ///< True when restored from the store.
    /// The restored record, or the one a cold start built (and saved,
    /// when a store is configured): the family's section plus the
    /// tuner's calibration.
    store::CalibrationRecord record;
};

/// A calibrated Tuner over @p family.  Without a key or a global
/// ArtifactStore this is build + Tuner + calibrate().  With both, a
/// stored record under the key is rebuilt and restored — skipping the
/// profiling sweep and whatever search the cold build runs; quality is
/// re-validated on the first audit — and a cold calibration is saved
/// for the next process.
WarmTuner warm_tuner(const VariantFamily& family, Metric metric,
                     double toq_percent,
                     const std::vector<std::uint64_t>& training_seeds,
                     int check_interval = 50);

}  // namespace paraprox::runtime
