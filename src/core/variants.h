/// @file
/// Bridge from generated approximate kernels to runtime tuner variants:
/// the caller describes how inputs are bound and launched (once), and
/// every GeneratedKernel becomes a runtime::Variant with its lookup
/// tables bound and its cost priced by the device model.  Together with
/// core::compile_kernel this is the complete adoption path:
///
///     parse -> compile_kernel -> make_variants -> Tuner.

#pragma once

#include <functional>
#include <memory>

#include "core/paraprox.h"
#include "exec/launch.h"
#include "runtime/tuner.h"

namespace paraprox::core {

/// How the application launches the kernel.
struct LaunchPlan {
    exec::LaunchConfig config;

    /// Create and bind every application argument (inputs, outputs,
    /// scalars) for the input identified by @p seed.  Buffers must be
    /// appended to @p storage, which outlives the launch.  The variant
    /// closures call it once per runtime::Input and share the result
    /// read-only: each launch copies the buffers its program writes.
    std::function<void(std::uint64_t seed, exec::ArgPack& args,
                       std::vector<std::unique_ptr<exec::Buffer>>& storage)>
        bind_inputs;

    /// Name of the output buffer scored by the quality metric.
    std::string output_buffer;
};

/// Bind each table's buffer (and, for shared placement, its size) into
/// @p args; backing Buffers are appended to @p storage, which must
/// outlive the launch.
void bind_tables(const std::vector<TableBinding>& tables,
                 exec::ArgPack& args,
                 std::vector<std::unique_ptr<exec::Buffer>>& storage);

/// Build the tuner-ready variant list: variants[0] is the exact kernel,
/// followed by one variant per generated kernel (tables bound
/// automatically).  All programs are compiled eagerly so launch-time work
/// is only binding + execution.
std::vector<runtime::Variant> make_variants(
    const ir::Module& module, const std::string& kernel,
    const std::vector<GeneratedKernel>& generated, const LaunchPlan& plan,
    const device::DeviceModel& device);

/// One-call convenience: compile_kernel + make_variants.
std::vector<runtime::Variant> make_variants(
    const ir::Module& module, const std::string& kernel,
    const CompileOptions& options, const LaunchPlan& plan);

}  // namespace paraprox::core
