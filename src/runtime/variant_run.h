/// @file
/// Bridging modeled device launches into runtime::VariantRun.
///
/// Every consumer of the tuner (sessions, apps, benches) executes a
/// compiled program under the device cost model and packages the result
/// the same way; these helpers are that one shared path.

#pragma once

#include <chrono>
#include <vector>

#include "device/memory_model.h"
#include "exec/launch.h"
#include "runtime/tuner.h"
#include "vm/bytecode.h"

namespace paraprox::runtime {

/// Launch under the device cost model and package the result.
VariantRun run_priced(const vm::Program& program, const exec::ArgPack& args,
                      const exec::LaunchConfig& config,
                      const device::DeviceModel& device,
                      std::vector<float> output_placeholder = {});

/// Launch in vm::ExecMode::Fast with no device model attached: the fused
/// fast stream runs without listeners or per-opcode accounting, so
/// modeled_cycles stays 0 and only wall time, total instructions and the
/// trap flag are reported.  This is the steady-state serving path.
VariantRun run_fast_unpriced(const vm::Program& program,
                             const exec::ArgPack& args,
                             exec::LaunchConfig config,
                             std::vector<float> output_placeholder = {});

/// Batched serving path: one exec::launch_batch over the concatenated
/// index space, vm::ExecMode::Fast, no pricing.  Returns one run per
/// ArgPack in order; a trapped member only poisons its own run.  Each
/// run's wall_seconds is the batch wall clock divided by the batch size
/// (the amortized per-request cost).
std::vector<VariantRun> run_batch_unpriced(
    const vm::Program& program,
    const std::vector<const exec::ArgPack*>& batch,
    exec::LaunchConfig config);

/// The wall clock a variant closure reports as its run's wall_seconds.
/// The closure starts one once its input build has returned, so the wall
/// covers its buffer copies, table binds, codecs, launches and read-back,
/// and never the input synthesis every variant of the family shares.
class WallTimer {
  public:
    double seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/// Collect @p out's floats into @p run (convenience since outputs are read
/// after the launch).
void attach_output(VariantRun& run, const exec::Buffer& out);

}  // namespace paraprox::runtime
