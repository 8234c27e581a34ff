/// @file
/// The approximate data tier: precision-partitioned storage as a tuner
/// axis.
///
/// build_data_tier() turns a KernelSession's *exact* kernel into a
/// variant family along a new knob: per-buffer storage precision.  The
/// pipeline is
///
///   1. data::analyze_storage_safety pins every buffer whose bits feed
///      addresses, atomics, accumulators, or tables;
///   2. one instrumented exact run profiles per-buffer traffic (pruning
///      plans that pack cold buffers) and records post-run buffer values
///      (fitting int8 affine parameters);
///   3. transforms::enumerate_precision_plans emits the bounded plan set;
///   4. each plan becomes an ordinary runtime::Variant whose closure
///      repacks the plan's buffers into data::PackedBuffers after the
///      application's bind_inputs and launches the *same exact bytecode*
///      — the VM transcodes on Ld/St, and the device model prices the
///      shrunken traffic.
///
/// Because precision plans are plain Variants, the whole Tuner stack —
/// TOQ calibration, audits, backoff, quarantine breakers, degradation
/// ladder — applies to them unchanged, and data_tier_family() lets
/// runtime::warm_tuner persist the searched plans with the calibration so
/// a restart re-serves without a single profiling or calibration run.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/precision_plan.h"
#include "data/safety.h"
#include "runtime/session.h"
#include "runtime/tuner.h"
#include "transforms/precision_tx.h"

namespace paraprox::runtime {

struct DataTierOptions {
    transforms::PrecisionTxOptions tx;
    /// Seed of the instrumented exact run used for traffic profiling and
    /// int8 range fitting.
    std::uint64_t profile_seed = 1;
};

/// A precision variant family over one kernel + launch plan.
struct DataTier {
    /// variants[0] is the exact kernel; variants[i] applies plans[i].
    std::vector<Variant> variants;
    /// plans[0] is the all-exact plan (no assignments), index-aligned
    /// with `variants`.
    std::vector<data::PrecisionPlan> plans;
    data::StorageSafety safety;
};

/// Enumerate, profile, and wrap precision plans for @p session's exact
/// kernel over @p plan.  Runs one instrumented exact launch (the traffic
/// profile / quant-fitting run).
DataTier build_data_tier(const KernelSession& session,
                         const core::LaunchPlan& plan,
                         const DataTierOptions& options = {});

/// Rebuild a DataTier's variant closures from previously searched plans
/// (a warm restart) — no profiling launch.  Plans that pack a buffer the
/// live safety analysis pins are rejected (returns an empty variant
/// list): stored data can never override the static safety proof.
DataTier rebuild_data_tier(const KernelSession& session,
                           const core::LaunchPlan& plan,
                           const std::vector<data::PrecisionPlan>& plans);

/// @p session's exact kernel over @p plan as a registrable precision
/// family (see runtime::warm_tuner), keyed by data_calibration_key().
/// The cold build is build_data_tier() and records its plans; the
/// rebuild is rebuild_data_tier() over a stored record's plans, so a
/// stored plan that packs a pinned buffer is still refused.  The family
/// refers to @p session, which must outlive its use.
VariantFamily data_tier_family(const KernelSession& session,
                               const core::LaunchPlan& plan, Metric metric,
                               double toq_percent,
                               const DataTierOptions& options = {});

/// The store key for this session's precision calibration (detail
/// "data-tier", alongside the kernel-calibration key's "calibration").
store::StoreKey data_calibration_key(const KernelSession& session,
                                     Metric metric,
                                     double toq_percent = -1.0);

}  // namespace paraprox::runtime
