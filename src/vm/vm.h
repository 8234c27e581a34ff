/// @file
/// The bytecode virtual machine: executes one work-group of a compiled
/// kernel, with work-item geometry, barriers, atomics, bounds-checked
/// memory, and dynamic-instruction accounting.
///
/// Execution statistics (per-opcode dynamic counts) and the memory-access
/// stream are the raw material for the device cost models: the paper's
/// GPU/CPU asymmetries (atomic cost, SFU transcendentals, cache behaviour
/// of lookup tables, coalescing) are all priced from what the VM reports.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/codec.h"
#include "support/error.h"
#include "vm/bytecode.h"

namespace paraprox::vm {

/// Raised when an approximate kernel does something unsafe (out-of-bounds
/// access, integer division by zero, barrier divergence).  The runtime
/// catches this and falls back to the exact kernel (paper §5, "Safety of
/// Optimizations").
class TrapError : public Error {
  public:
    explicit TrapError(const std::string& what) : Error(what) {}
};

/// Why a launch was cancelled.  First cancel wins; later cancels with a
/// different reason are ignored so the owner always observes the cause
/// that actually stopped the launch.
enum class CancelReason : int {
    None = 0,
    Deadline = 1,  ///< The request's deadline expired mid-launch.
    Watchdog = 2,  ///< The launch exceeded its hang ceiling.
};

/// Cooperative cancellation flag threaded from the serving layer down to
/// the interpreter: one relaxed atomic, the same shape as the launch
/// layer's trap-abort flag.  The GroupRunner polls it at control
/// transfers (where the fast loop already hoists its budget check) and
/// between work-items/rounds, so a cancelled launch stops within one
/// group round instead of running to completion.  Distinct from a trap:
/// cancellation is the *harness* terminating healthy-but-unwanted work,
/// so it must not feed quarantine breakers by itself.
class CancelToken {
  public:
    /// Request cancellation.  Returns true if this call was the one that
    /// cancelled (first reason wins).
    bool
    cancel(CancelReason reason)
    {
        int expected = 0;
        return state_.compare_exchange_strong(
            expected, static_cast<int>(reason), std::memory_order_relaxed,
            std::memory_order_relaxed);
    }

    bool
    cancelled() const
    {
        return state_.load(std::memory_order_relaxed) != 0;
    }

    CancelReason
    reason() const
    {
        return static_cast<CancelReason>(
            state_.load(std::memory_order_relaxed));
    }

  private:
    std::atomic<int> state_{static_cast<int>(CancelReason::None)};
};

/// Raised by the GroupRunner when its cancel token fires.  Deliberately
/// NOT a TrapError: traps mean the kernel misbehaved (and charge its
/// quarantine breaker); cancellation means the harness no longer wants
/// the result.  The launch layer converts this into a cancelled
/// LaunchResult instead of a trap.
class CancelledError : public Error {
  public:
    explicit CancelledError(const std::string& what) : Error(what) {}
};

/// Dynamic execution statistics for a launch (or a slice of one).
struct ExecStats {
    std::array<std::uint64_t, kNumOpcodes> opcode_counts{};
    std::uint64_t total_instructions = 0;

    void
    merge(const ExecStats& other)
    {
        for (int i = 0; i < kNumOpcodes; ++i)
            opcode_counts[i] += other.opcode_counts[i];
        total_instructions += other.total_instructions;
    }

    std::uint64_t
    count(Opcode op) const
    {
        return opcode_counts[static_cast<int>(op)];
    }
};

/// Receives every Ld/St/atomic performed by a work-group; implemented by
/// the device memory models.
class MemoryListener {
  public:
    virtual ~MemoryListener() = default;

    /// @param instr_index static instruction id within the program.
    /// @param buffer_slot which kernel buffer parameter was touched.
    /// @param space address space of that buffer.
    /// @param element index of the element accessed.
    /// @param is_store true for St and all atomics.
    /// @param global_linear_id flattened global work-item id (warp grouping
    ///        uses consecutive ids).
    /// @param elem_bytes storage footprint of the element (4 for exact
    ///        buffers, fewer for packed codecs) — the memory cost models
    ///        charge bytes moved, so packed buffers coalesce into
    ///        proportionally fewer cache lines.
    virtual void on_access(int instr_index, int buffer_slot,
                           ir::AddrSpace space, std::int64_t element,
                           bool is_store, std::int64_t global_linear_id,
                           int elem_bytes) = 0;
};

/// A runtime view of a buffer argument.  `size` is always the *logical*
/// element count (bounds checks are codec-independent); for a packed view
/// (`codec != Exact`) the backing array holds
/// data::packed_words(codec, size) words and every Ld/St goes through the
/// codec's decode/encode (see data/codec.h).  Atomics require an exact
/// view — the VM traps otherwise, and the storage safety analysis pins
/// such buffers exact so the trap is unreachable from tuned plans.
struct BufferView {
    std::int32_t* data = nullptr;
    std::int64_t size = 0;
    data::Codec codec = data::Codec::Exact;
    data::QuantParams quant;

    /// Words actually backing this view.
    std::int64_t
    storage_words() const
    {
        return data::packed_words(codec, size);
    }
};

/// Position of one work-group within the launch grid.
struct GroupGeometry {
    std::array<int, 3> group_id{0, 0, 0};
    std::array<int, 3> num_groups{1, 1, 1};
    std::array<int, 3> local_size{1, 1, 1};

    int
    local_count() const
    {
        return local_size[0] * local_size[1] * local_size[2];
    }

    std::int64_t
    group_linear() const
    {
        return (static_cast<std::int64_t>(group_id[2]) * num_groups[1] +
                group_id[1]) * num_groups[0] + group_id[0];
    }
};

/// Executes every work-item of one work-group.
///
/// Work-items run in chunks of consecutive ids: one item per chunk in
/// Instrumented mode, up to kLanes in Fast mode.  Groups without barriers
/// run their chunks to completion one after another; groups with
/// barriers run all chunks cooperatively in barrier-delimited rounds
/// (detecting divergent barriers).
///
/// Two execution modes (ExecMode): Instrumented runs the canonical code
/// stream one work-item at a time, with per-opcode counting, listener
/// callbacks, and a per-dispatch budget check.  Fast runs the fused
/// fast_code stream in lockstep: each instruction is decoded once and
/// applied to every active lane of the chunk, whose registers are stored
/// register-major.  Lanes whose branches disagree split, and the split
/// with the lowest pc always runs next, so the splits meet again at the
/// join.  Fast mode counts only total dispatches (one per lane per
/// instruction) and checks the budget and the cancel token at control
/// transfers.  Safety traps (bounds, division by zero, divergent
/// barriers) are identical in both modes, as are the outputs of every
/// kernel whose work-items communicate only through barriers and
/// atomics.
class GroupRunner {
  public:
    /// @param shared_sizes element counts for each Shared buffer slot;
    ///        ignored entries for non-shared slots.
    /// @param mode Fast requires @p listener to be null (the fast loop
    ///        has no listener callbacks to deliver).
    /// @param cancel optional cooperative cancellation token, polled at
    ///        control transfers and between chunks; null = the
    ///        launch cannot be cancelled.
    GroupRunner(const Program& program,
                std::vector<BufferView> global_buffers,
                const std::vector<Value>& scalar_args,
                const std::vector<std::int64_t>& shared_sizes,
                const GroupGeometry& geometry, ExecStats* stats,
                MemoryListener* listener,
                ExecMode mode = ExecMode::Instrumented,
                const CancelToken* cancel = nullptr);

    /// Run the whole group.  Throws TrapError on unsafe behaviour.
    void run();

    /// Register file of the last work-item that completed, captured after
    /// run().  Used by host-side scalar evaluation (register 0 holds the
    /// result of a compile_scalar_function program).
    const std::vector<Value>& final_regs() const { return final_regs_; }

    /// Upper bound on dynamic instructions per work-item before the VM
    /// assumes a runaway loop and traps (defends tests against infinite
    /// loops in generated kernels).
    static constexpr std::uint64_t kMaxInstructionsPerItem = 1ull << 33;

    /// Most work-items a Fast-mode chunk runs in lockstep.
    static constexpr int kLanes = 64;

  private:
    /// Consecutive work-items that run together (defined in vm.cpp).
    struct Chunk;
    /// One split's turn in the lane loop (defined in vm.cpp).
    struct Turn;

    // The two dispatch loops, run_item and run_split, start on a page
    // boundary.  Switch dispatch is sensitive to where its branches land:
    // left to the linker, a loop's speed moved by ~15% with the size of
    // unrelated code linked before it.  Pinned, its layout is the same in
    // every binary.

    /// Run one work-item (a one-lane chunk) of the canonical stream until
    /// Halt (or Barrier when @p stop_at_barrier), with full accounting.
    /// Returns the number of lanes parked at a barrier: 1 or 0.
    [[gnu::aligned(4096)]] int run_item(Chunk& item, bool stop_at_barrier);

    /// Run the lanes of @p chunk over the fast stream in lockstep until
    /// each halts (or parks at a Barrier when @p stop_at_barrier): give
    /// turns to its splits, lowest pc first, merging splits that meet.
    /// Returns the number of lanes parked.
    int run_chunk(Chunk& chunk, bool stop_at_barrier);

    /// Run @p turn's lanes in lockstep until they reach the next split's
    /// pc, disagree on a branch, park or halt.
    [[gnu::aligned(4096)]] void run_split(Turn& turn);

    /// Local id of the work-item with linear local id @p linear.
    std::array<int, 3> local_id(int linear) const;

    /// Throw CancelledError if the launch's token fired.
    void check_cancel() const;

    const Program& program_;
    std::vector<BufferView> buffers_;  ///< Global + per-group shared views.
    std::vector<std::vector<std::int32_t>> shared_storage_;
    const std::vector<Value>& scalar_args_;
    GroupGeometry geometry_;
    ExecStats* stats_;
    MemoryListener* listener_;
    ExecMode mode_;
    const CancelToken* cancel_;
    int width_;  ///< Lanes per chunk: 1 Instrumented, <= kLanes Fast.
    ExecStats local_stats_;
    std::vector<Value> final_regs_;
};

/// Execute a compile_scalar_function() program once with @p args bound to
/// its scalar parameters (in declaration order) and return register 0.
Value run_scalar_program(const Program& program,
                         const std::vector<Value>& args);

}  // namespace paraprox::vm
