/// @file
/// Kernel launches: bind arguments by parameter name, split the NDRange
/// into work-groups, and execute groups in parallel on the host thread
/// pool.

#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/packed_buffer.h"
#include "exec/buffer.h"
#include "vm/bytecode.h"
#include "vm/vm.h"

namespace paraprox::exec {

/// NDRange shape of a launch.  global_size must be divisible by local_size
/// in every dimension.
struct LaunchConfig {
    std::array<int, 3> global_size{1, 1, 1};
    std::array<int, 3> local_size{1, 1, 1};
    /// Execution mode for every work-group.  Fast mode is incompatible
    /// with a LaunchObserver (no listener callbacks) and reports only
    /// ExecStats::total_instructions.
    vm::ExecMode mode = vm::ExecMode::Instrumented;

    static LaunchConfig
    linear(int global, int local)
    {
        return {{global, 1, 1}, {local, 1, 1}};
    }

    static LaunchConfig
    grid2d(int gx, int gy, int lx, int ly)
    {
        return {{gx, gy, 1}, {lx, ly, 1}};
    }
};

/// Named kernel arguments.  Buffers are bound by reference and must outlive
/// the launch; __shared parameters are bound to an element count.  A
/// packed() binding substitutes a lossily-stored data::PackedBuffer for an
/// F32 parameter (the VM transcodes on Ld/St) and shadows any exact
/// binding of the same name — the data tier packs over the application's
/// own bindings.
class ArgPack {
  public:
    ArgPack& buffer(const std::string& name, Buffer& buf);
    ArgPack& packed(const std::string& name, data::PackedBuffer& buf);
    ArgPack& scalar(const std::string& name, int value);
    ArgPack& scalar(const std::string& name, float value);
    ArgPack& shared(const std::string& name, std::int64_t elements);

    Buffer* find_buffer(const std::string& name) const;
    data::PackedBuffer* find_packed(const std::string& name) const;
    const vm::Value* find_scalar(const std::string& name) const;
    std::int64_t find_shared(const std::string& name) const;  ///< 0 if absent

  private:
    std::map<std::string, Buffer*> buffers_;
    std::map<std::string, data::PackedBuffer*> packed_;
    std::map<std::string, vm::Value> scalars_;
    std::map<std::string, std::int64_t> shared_sizes_;
};

/// Per-launch observer supplying per-group memory listeners; implemented by
/// device models to price memory traffic.
class LaunchObserver {
  public:
    virtual ~LaunchObserver() = default;

    /// Create the listener for one work-group (called concurrently).
    virtual std::unique_ptr<vm::MemoryListener>
    make_group_listener(std::int64_t group_linear) = 0;

    /// Absorb a finished group's listener (serialized by the launcher).
    virtual void on_group_complete(vm::MemoryListener& listener) = 0;
};

/// Outcome of a launch.
struct LaunchResult {
    vm::ExecStats stats;
    double wall_seconds = 0.0;
    bool trapped = false;
    std::string trap_message;
    /// The launch's cancel token fired: remaining groups were skipped, no
    /// stats were merged, and output buffers may be partially written.
    bool cancelled = false;
    /// Why (valid when cancelled; CancelReason::None otherwise).
    vm::CancelReason cancel_reason = vm::CancelReason::None;
    /// Work-groups that ran to completion / total groups in the NDRange.
    /// completed < total on a trapped or cancelled launch measures how
    /// much CPU the abort actually saved — the serving layer's "wasted
    /// work" accounting reads it.
    std::int64_t groups_completed = 0;
    std::int64_t groups_total = 0;
};

/// RAII ambient cancel tokens, one per batch member, index-aligned with
/// the `batch` vector a launch_batch inside the scope receives (launch()
/// is a one-member batch).  This is the only way a launch gets a cancel
/// token: the serving layer arms per-request cancellation without
/// threading tokens through every Variant closure.  A size mismatch
/// disarms the scope for that launch (never misattributes a token);
/// entries may be null (uncancellable member); nested scopes shadow.
/// Tokens are resolved at launch entry on the launching thread (pool
/// workers inherit them by capture).  A fired token stops its member
/// within one group round: queued groups are skipped, running groups
/// bail at their next control transfer, and no further stats merge.
class BatchCancelScope {
  public:
    explicit BatchCancelScope(
        const std::vector<const vm::CancelToken*>* tokens);
    ~BatchCancelScope();

    BatchCancelScope(const BatchCancelScope&) = delete;
    BatchCancelScope& operator=(const BatchCancelScope&) = delete;

  private:
    const std::vector<const vm::CancelToken*>* previous_;
};

/// The innermost ambient tokens on this thread (null when no scope is
/// active).  A caller that runs a batch one launch per member narrows the
/// scope to each member's token with it (see Tuner::serve_batch).
const std::vector<const vm::CancelToken*>* current_batch_cancel_tokens();

/// Execute @p program over @p config with @p args: a one-member
/// launch_batch that may attach a pricing @p observer.
///
/// Safety: vm::TrapError raised by any work-group aborts the launch and is
/// reported via LaunchResult::trapped (output buffers may be partially
/// written); other exceptions propagate.  Groups that have not started when
/// the trap lands are skipped rather than executed, and LaunchResult::stats
/// never includes partial counts from trapped or skipped groups.
LaunchResult launch(const vm::Program& program, const ArgPack& args,
                    const LaunchConfig& config,
                    LaunchObserver* observer = nullptr);

/// Execute @p program once per ArgPack in @p batch, as one launch over
/// the concatenated index space (batch.size() x the per-member group
/// count): every group of every member is one task on the host pool, so
/// a batch of small NDRanges fills the machine the way one large NDRange
/// does, and the per-launch fixed cost is paid once.
///
/// Members are independent: a vm::TrapError in member i's groups aborts
/// only that member (its result reports trapped; its remaining groups are
/// skipped) while every other member runs to completion.  Stats never
/// include partial counts from trapped or skipped groups.  No observer:
/// batched launches serve, they do not price — each member's
/// wall_seconds reports the whole batch's wall clock divided by the
/// batch size (the amortized cost, which is the number a serving layer
/// wants).
std::vector<LaunchResult> launch_batch(
    const vm::Program& program, const std::vector<const ArgPack*>& batch,
    const LaunchConfig& config);

}  // namespace paraprox::exec
