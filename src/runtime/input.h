/// @file
/// runtime::Input: one input of a variant family, built once and shared.
///
/// A request, a calibration job and a replay all name their input by
/// seed, and a family's bind_inputs turns the seed into bound buffers.
/// Building can cost more than the launch (Naive Bayes' perfbench input
/// takes several times its approximate launch to build), and one request
/// runs several variants on the same input: the served run, its trap or
/// watchdog fallback, a shadow audit, a half-open probe.  Input is the
/// handle they share.  The first run that needs the build makes it, under
/// a once-flag, for its family; every copy of the handle then reads the
/// same build.  The build is read-only: each launch copies only the
/// buffers its program writes (launch_args) and binds the rest in place.
///
///     seed -> Input -> build (once per family) -> launch_args per launch

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/launch.h"
#include "vm/bytecode.h"

namespace paraprox::runtime {

/// Creates and binds every argument (inputs, outputs, scalars) of the
/// input identified by @p seed; the buffers go to @p storage.  The shape
/// of core::LaunchPlan::bind_inputs and PipelineStage::bind_inputs.
using BindInputs =
    std::function<void(std::uint64_t seed, exec::ArgPack& args,
                       std::vector<std::unique_ptr<exec::Buffer>>& storage)>;

/// What one BindInputs call produced: the pack and the buffers it points
/// into.
struct BoundArgs {
    exec::ArgPack args;
    std::vector<std::unique_ptr<exec::Buffer>> storage;
};

/// How a family builds an input: one binder per stage (a single one for
/// a plain kernel or a data tier).  The variants of one family share one
/// InputFamily, and an Input's build is keyed by it.
using InputFamily = std::vector<BindInputs>;

/// One family's build of one input: one BoundArgs per stage.
using InputBuild = std::vector<BoundArgs>;

/// A copyable handle on one input: its seed and, once a run asks for it,
/// one family's read-only build, shared by every copy.  Implicitly
/// constructible from a seed, so a seed passes wherever an Input is
/// expected (and then builds on its own, as a fresh handle).
class Input {
  public:
    Input(std::uint64_t seed);  // NOLINT(google-explicit-constructor)

    std::uint64_t seed() const;

    /// This input's build for @p family.  The first call builds, under a
    /// once-flag, and the handle keeps the build for @p family; later
    /// calls for the same family return it.  A call for another family
    /// returns a private build that only the caller holds.  Thread-safe.
    std::shared_ptr<const InputBuild>
    build(const std::shared_ptr<const InputFamily>& family) const;

  private:
    struct State;
    std::shared_ptr<State> state_;
};

/// The global buffer parameters @p program writes: the targets of St and
/// Atom* in Program::code.  Worked out once per program.
std::vector<std::string> written_buffers(const vm::Program& program);

/// The arguments of one launch over the shared build @p built: a copy of
/// its pack in which every buffer named in @p written is rebound to a
/// fresh copy appended to @p storage.  Read-only buffers, scalars and
/// shared sizes still point into @p built, which must outlive the launch
/// and is never written.  A bind_inputs binds each buffer under one name.
exec::ArgPack launch_args(const BoundArgs& built,
                          const std::vector<std::string>& written,
                          std::vector<std::unique_ptr<exec::Buffer>>& storage);

}  // namespace paraprox::runtime
