#include "vm/vm.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "support/faultinject.h"

namespace paraprox::vm {

namespace {

/// One bit per lane of a Fast-mode chunk.
using LaneMask = std::uint64_t;
static_assert(GroupRunner::kLanes == std::numeric_limits<LaneMask>::digits);

/// Lanes 0 .. count-1.
LaneMask
lanes_below(int count)
{
    return count == GroupRunner::kLanes ? ~LaneMask{0}
                                        : (LaneMask{1} << count) - 1;
}

/// The lanes of a chunk that sit at one pc.
struct Split {
    std::int64_t pc;
    LaneMask lanes;
};

/// Add @p split to @p table, which is sorted by descending pc, merging it
/// into the entry already at its pc.
void
insert_split(Split* table, int& entries, Split split)
{
    int at = entries;
    while (at > 0 && table[at - 1].pc <= split.pc)
        --at;
    if (at < entries && table[at].pc == split.pc) {
        table[at].lanes |= split.lanes;
        return;
    }
    std::copy_backward(table + at, table + entries, table + entries + 1);
    table[at] = split;
    ++entries;
}

/// The stream Fast mode runs: the fused one when the compiler built it;
/// hand-assembled test programs have only the canonical code.
const std::vector<Instr>&
fast_stream(const Program& program)
{
    return program.fast_code.empty() ? program.code : program.fast_code;
}

/// How a split's turn in the lane loop ended.
enum class SplitEnd {
    Reached,   ///< It reached the pc of the next split in the table.
    Diverged,  ///< Its lanes disagreed on a branch.
    Parked,    ///< It reached a barrier.
    Halted,
};

[[noreturn, gnu::cold]] void
trap(const char* what)
{
    throw TrapError(what);
}

/// Trap on a bad access to the buffer named @p buffer.
[[noreturn, gnu::cold]] void
trap_access(const char* what, const std::string& buffer)
{
    throw TrapError(std::string(what) + " `" + buffer + "`");
}

[[noreturn, gnu::cold]] void
trap_budget()
{
    throw TrapError("instruction budget exceeded (runaway loop?)");
}

/// Atomic read-modify-write on a 4-byte word shared between host threads.
template <typename ApplyFn>
std::int32_t
atomic_rmw(std::int32_t* word, ApplyFn apply)
{
    std::atomic_ref<std::int32_t> ref(*word);
    std::int32_t old_word = ref.load(std::memory_order_relaxed);
    for (;;) {
        const std::int32_t new_word = apply(old_word);
        if (ref.compare_exchange_weak(old_word, new_word,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
            return old_word;
        }
    }
}

float
as_float(std::int32_t word)
{
    return std::bit_cast<float>(word);
}

std::int32_t
as_word(float value)
{
    return std::bit_cast<std::int32_t>(value);
}

/// Integer add, subtract, multiply and negate on the 32-bit two's-
/// complement pattern: computed through uint32 so overflow wraps mod 2^32
/// (like GPU integer units) instead of being undefined behaviour.
std::int32_t
wrap_add(std::int32_t lhs, std::int32_t rhs)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(lhs) +
                                     static_cast<std::uint32_t>(rhs));
}

std::int32_t
wrap_sub(std::int32_t lhs, std::int32_t rhs)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(lhs) -
                                     static_cast<std::uint32_t>(rhs));
}

std::int32_t
wrap_mul(std::int32_t lhs, std::int32_t rhs)
{
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(lhs) *
                                     static_cast<std::uint32_t>(rhs));
}

std::int32_t
wrap_neg(std::int32_t value)
{
    return static_cast<std::int32_t>(0u - static_cast<std::uint32_t>(value));
}

/// Integer division and modulo for a nonzero divisor.  The one quotient
/// that overflows, INT_MIN / -1, wraps to INT_MIN; its remainder is 0.
std::int32_t
wrap_div(std::int32_t lhs, std::int32_t rhs)
{
    return rhs == -1 ? wrap_neg(lhs) : lhs / rhs;
}

std::int32_t
wrap_mod(std::int32_t lhs, std::int32_t rhs)
{
    return rhs == -1 ? 0 : lhs % rhs;
}

/// float -> int with GPU `__float2int_rz` semantics: truncate toward zero,
/// saturate out-of-range values, and map NaN to 0.  A plain static_cast is
/// undefined behaviour for NaN and for values outside [INT32_MIN, INT32_MAX].
std::int32_t
float_to_int_rz(float value)
{
    if (std::isnan(value))
        return 0;
    // 2^31 is exactly representable as float; every float >= it is out of
    // int32 range.  INT32_MIN itself is representable, so only values
    // strictly below it saturate.
    if (value >= 2147483648.0f)
        return std::numeric_limits<std::int32_t>::max();
    if (value < -2147483648.0f)
        return std::numeric_limits<std::int32_t>::min();
    return static_cast<std::int32_t>(value);
}

/// Left shift through uint32 so a negative value or a shift producing a
/// sign-bit change is well-defined (wraps mod 2^32, like GPU hardware).
/// Shift counts are masked to 5 bits, matching NVIDIA/AMD ISA behaviour.
std::int32_t
shift_left(std::int32_t value, std::int32_t count)
{
    const unsigned sh = static_cast<std::uint32_t>(count) & 31u;
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(value)
                                     << sh);
}

/// Arithmetic (sign-filling) right shift implemented on uint32 so the
/// semantics don't depend on the implementation-defined behaviour of `>>`
/// on negative operands.
std::int32_t
shift_right_arith(std::int32_t value, std::int32_t count)
{
    const unsigned sh = static_cast<std::uint32_t>(count) & 31u;
    std::uint32_t word = static_cast<std::uint32_t>(value) >> sh;
    if (value < 0 && sh != 0)
        word |= ~std::uint32_t{0} << (32u - sh);
    return static_cast<std::int32_t>(word);
}

/// Load one element through the view's storage codec.  The Exact branch is
/// the original word load; packed views decode to fp32 (packed buffers are
/// restricted to F32 elements at launch time, so the register image is
/// always a float's bit pattern).
[[gnu::always_inline]] inline std::int32_t
codec_load(const BufferView& view, std::int64_t index)
{
    if (view.codec == data::Codec::Exact) [[likely]]
        return view.data[index];
    return as_word(
        data::load_element(view.codec, view.data, index, view.quant));
}

/// Store one element through the view's storage codec.
[[gnu::always_inline]] inline void
codec_store(const BufferView& view, std::int64_t index, std::int32_t word)
{
    if (view.codec == data::Codec::Exact) [[likely]] {
        view.data[index] = word;
        return;
    }
    data::store_element(view.codec, view.data, index, as_float(word),
                        view.quant);
}

/// Load element @p index of @p view, trapping when it is out of bounds.
[[gnu::always_inline]] inline std::int32_t
checked_load(const BufferView& view, std::int64_t index,
             const std::string& buffer)
{
    if (index < 0 || index >= view.size) [[unlikely]]
        trap_access("out-of-bounds load from", buffer);
    return codec_load(view, index);
}

/// Store @p word at element @p index of @p view, trapping when it is out
/// of bounds.
[[gnu::always_inline]] inline void
checked_store(const BufferView& view, std::int64_t index, std::int32_t word,
              const std::string& buffer)
{
    if (index < 0 || index >= view.size) [[unlikely]]
        trap_access("out-of-bounds store to", buffer);
    codec_store(view, index, word);
}

/// Apply atomic opcode @p op with @p operand to @p word, returning the old
/// word.  Float elements add, min and max as floats.  Integer add and
/// increment wrap mod 2^32: atomic arithmetic on a signed type is defined
/// as two's complement.
std::int32_t
atomic_op(Opcode op, std::int32_t* word, bool is_float_elem, Value operand)
{
    std::atomic_ref<std::int32_t> ref(*word);
    constexpr auto order = std::memory_order_acq_rel;
    switch (op) {
      case Opcode::AtomAdd:
        if (!is_float_elem)
            return ref.fetch_add(operand.i, order);
        return atomic_rmw(word, [&](std::int32_t w) {
            return as_word(as_float(w) + operand.f);
        });
      case Opcode::AtomMin:
        return atomic_rmw(word, [&](std::int32_t w) {
            return is_float_elem ? as_word(std::fmin(as_float(w), operand.f))
                                 : std::min(w, operand.i);
        });
      case Opcode::AtomMax:
        return atomic_rmw(word, [&](std::int32_t w) {
            return is_float_elem ? as_word(std::fmax(as_float(w), operand.f))
                                 : std::max(w, operand.i);
        });
      case Opcode::AtomInc:
        return ref.fetch_add(1, order);
      case Opcode::AtomAnd:
        return ref.fetch_and(operand.i, order);
      case Opcode::AtomOr:
        return ref.fetch_or(operand.i, order);
      case Opcode::AtomXor:
        return ref.fetch_xor(operand.i, order);
      default:
        PARAPROX_ASSERT(false, "not an atomic opcode");
        return 0;
    }
}

}  // namespace

/// Consecutive work-items that run together: one in Instrumented mode, up
/// to kLanes (the lanes) in Fast mode.
struct GroupRunner::Chunk {
    int first = 0;          ///< Linear local id of lane 0.
    int lanes = 0;          ///< Work-items in the chunk, at most width_.
    Value* regs = nullptr;  ///< Register r of lane l is regs[r * width_ + l].
    /// In barrier-delimited rounds, the pc each lane continues from: 0
    /// before the first round, then the instruction after the barrier it
    /// parked at.  Null when the group has no barrier: every run starts
    /// all lanes at pc 0.
    std::int64_t* resume = nullptr;
    bool live = true;  ///< Some lane has not halted.
};

/// One split's turn in the lane loop: which lanes run from where, and how
/// the turn ended.
struct GroupRunner::Turn {
    Value* regs;                  ///< The chunk's register file.
    /// The split's lanes in ascending order, or null when every lane of
    /// the chunk is in the split.
    const std::uint8_t* active;
    int n;                        ///< Lanes in the split.
    const std::int32_t (*lid)[kLanes];  ///< Local ids, [dim][lane].
    LaneMask lanes;
    std::uint64_t most;           ///< Most dispatches any lane ran before.
    bool stop_at_barrier;
    std::int64_t pc;              ///< In: where to start.  Out: see end.
    std::int64_t stop_pc;         ///< The next split's pc.
    std::uint64_t steps = 0;      ///< Out: instructions run.
    SplitEnd end = SplitEnd::Reached;  ///< Out: how the turn ended at pc.
    LaneMask taken = 0;           ///< Out, Diverged: the lanes that branch,
    std::int64_t branch_to = 0;   ///< to here.
};

GroupRunner::GroupRunner(const Program& program,
                         std::vector<BufferView> global_buffers,
                         const std::vector<Value>& scalar_args,
                         const std::vector<std::int64_t>& shared_sizes,
                         const GroupGeometry& geometry, ExecStats* stats,
                         MemoryListener* listener, ExecMode mode,
                         const CancelToken* cancel)
    : program_(program), buffers_(std::move(global_buffers)),
      scalar_args_(scalar_args), geometry_(geometry), stats_(stats),
      listener_(listener), mode_(mode), cancel_(cancel),
      width_(mode == ExecMode::Fast
                 ? std::clamp(geometry.local_count(), 1, kLanes)
                 : 1)
{
    PARAPROX_CHECK(buffers_.size() == program.buffers.size(),
                   "kernel buffer argument count mismatch");
    PARAPROX_CHECK(mode_ == ExecMode::Instrumented || listener_ == nullptr,
                   "fast execution cannot deliver memory-listener "
                   "callbacks; use ExecMode::Instrumented");
    PARAPROX_CHECK(scalar_args_.size() == program.scalars.size(),
                   "kernel scalar argument count mismatch");
    // Allocate per-group storage for __shared buffers.
    for (std::size_t slot = 0; slot < program.buffers.size(); ++slot) {
        if (program.buffers[slot].space == ir::AddrSpace::Shared) {
            PARAPROX_CHECK(slot < shared_sizes.size() &&
                               shared_sizes[slot] > 0,
                           "missing size for __shared buffer `" +
                               program.buffers[slot].name + "`");
            shared_storage_.emplace_back(shared_sizes[slot], 0);
            buffers_[slot] = {shared_storage_.back().data(),
                              static_cast<std::int64_t>(shared_sizes[slot])};
        }
    }
}

void
GroupRunner::check_cancel() const
{
    if (cancel_ && cancel_->cancelled()) {
        throw CancelledError("launch cancelled in kernel `" +
                             program_.kernel_name + "`");
    }
}

std::array<int, 3>
GroupRunner::local_id(int linear) const
{
    const auto& size = geometry_.local_size;
    return {linear % size[0], (linear / size[0]) % size[1],
            linear / (size[0] * size[1])};
}

void
GroupRunner::run()
{
    // Chaos-testing site: manufacture a trap before any work-item runs, so
    // the trap surfaces through the same launch/abort machinery as a real
    // divergent barrier or budget overrun.
    if (fault::fire("vm.trap", program_.kernel_name)) {
        throw TrapError("injected fault: vm.trap in kernel `" +
                        program_.kernel_name + "`");
    }

    // Chaos-testing site: spin like a pathological kernel stuck in a loop
    // the instruction budget has not caught yet.  Only cooperative
    // cancellation ends it promptly — exactly what the hung-launch
    // watchdog exists to deliver.  A hard wall ceiling below keeps an
    // unwatched hang from stalling a test run forever; giving up that way
    // is a trap (the kernel really is pathological).
    if (fault::fire("vm.hang", program_.kernel_name)) {
        const auto hang_started = std::chrono::steady_clock::now();
        constexpr auto kHangGiveUp = std::chrono::seconds(20);
        for (;;) {
            check_cancel();
            if (std::chrono::steady_clock::now() - hang_started >
                kHangGiveUp) {
                throw TrapError("injected fault: vm.hang in kernel `" +
                                program_.kernel_name +
                                "` ran unwatched past its ceiling");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    const int count = geometry_.local_count();
    const auto step = [&](Chunk& chunk, bool stop_at_barrier) {
        return mode_ == ExecMode::Instrumented
                   ? run_item(chunk, stop_at_barrier)
                   : run_chunk(chunk, stop_at_barrier);
    };
    // Point @p chunk at the work-items from @p first on.
    const auto start = [&](Chunk& chunk, int first) {
        chunk.first = first;
        chunk.lanes = std::min(width_, count - first);
        for (std::size_t s = 0; s < program_.scalars.size(); ++s) {
            std::fill_n(chunk.regs + program_.scalars[s].reg * width_,
                        chunk.lanes, scalar_args_[s]);
        }
    };
    const auto keep_final_regs = [&](const Chunk& last) {
        final_regs_.resize(program_.num_regs);
        for (int r = 0; r < program_.num_regs; ++r)
            final_regs_[r] = last.regs[r * width_ + last.lanes - 1];
    };
    // One register file per chunk, zeroed.  make_unique<Value[]> zeroes
    // with one memset; std::vector<Value> would store lane by lane.
    const std::size_t file =
        static_cast<std::size_t>(program_.num_regs) * width_;

    if (!program_.has_barrier) {
        // Independent work-items: run each chunk to completion, reusing
        // one register file.
        const auto regs = std::make_unique<Value[]>(file);
        Chunk chunk;
        chunk.regs = regs.get();
        for (int first = 0; first < count; first += width_) {
            check_cancel();
            start(chunk, first);
            step(chunk, false);
        }
        if (count > 0)
            keep_final_regs(chunk);
    } else {
        // Cooperative execution in barrier-delimited rounds.
        const int chunk_count = (count + width_ - 1) / width_;
        const auto regs = std::make_unique<Value[]>(file * chunk_count);
        std::vector<std::int64_t> resume(count, 0);
        std::vector<Chunk> chunks(chunk_count);
        for (int c = 0; c < chunk_count; ++c) {
            chunks[c].regs = regs.get() + file * c;
            chunks[c].resume = resume.data() + c * width_;
            start(chunks[c], c * width_);
        }
        for (;;) {
            int at_barrier = 0;
            int halted = 0;
            for (Chunk& chunk : chunks) {
                check_cancel();
                const int parked = chunk.live ? step(chunk, true) : 0;
                chunk.live = parked > 0;
                at_barrier += parked;
                halted += chunk.lanes - parked;
            }
            if (at_barrier == 0) {
                if (!chunks.empty())
                    keep_final_regs(chunks.back());
                break;
            }
            // Some work-items reached the barrier while others exited:
            // divergent barrier.
            if (halted != 0) {
                throw TrapError("divergent barrier in kernel `" +
                                program_.kernel_name + "`");
            }
        }
    }

    // Chaos-testing site: silently poison the kernel's output so the
    // corruption is only catchable by a quality audit, not by a trap.
    // quality_percent skips non-finite pairs and scores an all-NaN output
    // as 0, so the whole first global buffer is poisoned, not one element.
    if (fault::fire("vm.nan", program_.kernel_name)) {
        const std::int32_t nan_word =
            as_word(std::numeric_limits<float>::quiet_NaN());
        for (std::size_t slot = 0; slot < program_.buffers.size(); ++slot) {
            if (program_.buffers[slot].space == ir::AddrSpace::Global &&
                buffers_[slot].size > 0) {
                // Fill the physical words, not the logical element count:
                // a packed view backs fewer words than elements.
                std::fill_n(buffers_[slot].data,
                            buffers_[slot].storage_words(), nan_word);
                break;
            }
        }
    }

    if (stats_) {
        // Merge once per group; the launch layer synchronizes.
        stats_->merge(local_stats_);
    }
}

int
GroupRunner::run_item(Chunk& item, bool stop_at_barrier)
{
    const Instr* code = program_.code.data();
    const auto code_size = static_cast<std::int64_t>(program_.code.size());
    Value* regs = item.regs;
    auto& counts = local_stats_.opcode_counts;
    std::uint64_t executed = 0;

    const std::array<int, 3> lid = local_id(item.first);
    const std::int64_t global_linear =
        geometry_.group_linear() * geometry_.local_count() + item.first;

    std::int64_t pc = item.resume ? item.resume[0] : 0;
    for (;;) {
        PARAPROX_ASSERT(pc >= 0 && pc < code_size, "pc out of range");
        const Instr& instr = code[pc];
        ++executed;
        ++counts[static_cast<int>(instr.op)];
        if (executed > kMaxInstructionsPerItem)
            trap_budget();

        switch (instr.op) {
          case Opcode::Nop:
            break;
          case Opcode::LdImm:
            regs[instr.a] = instr.imm;
            break;
          case Opcode::Mov:
            regs[instr.a] = regs[instr.b];
            break;

          case Opcode::AddI:
            regs[instr.a].i = wrap_add(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::SubI:
            regs[instr.a].i = wrap_sub(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::MulI:
            regs[instr.a].i = wrap_mul(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::DivI:
            if (regs[instr.c].i == 0)
                trap("integer division by zero");
            regs[instr.a].i = wrap_div(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::ModI:
            if (regs[instr.c].i == 0)
                trap("integer modulo by zero");
            regs[instr.a].i = wrap_mod(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::AddF:
            regs[instr.a].f = regs[instr.b].f + regs[instr.c].f;
            break;
          case Opcode::SubF:
            regs[instr.a].f = regs[instr.b].f - regs[instr.c].f;
            break;
          case Opcode::MulF:
            regs[instr.a].f = regs[instr.b].f * regs[instr.c].f;
            break;
          case Opcode::DivF:
            regs[instr.a].f = regs[instr.b].f / regs[instr.c].f;
            break;
          case Opcode::NegI:
            regs[instr.a].i = wrap_neg(regs[instr.b].i);
            break;
          case Opcode::NegF:
            regs[instr.a].f = -regs[instr.b].f;
            break;
          case Opcode::NotI:
            regs[instr.a].i = regs[instr.b].i == 0 ? 1 : 0;
            break;

          case Opcode::LtI:
            regs[instr.a].i = regs[instr.b].i < regs[instr.c].i;
            break;
          case Opcode::LeI:
            regs[instr.a].i = regs[instr.b].i <= regs[instr.c].i;
            break;
          case Opcode::GtI:
            regs[instr.a].i = regs[instr.b].i > regs[instr.c].i;
            break;
          case Opcode::GeI:
            regs[instr.a].i = regs[instr.b].i >= regs[instr.c].i;
            break;
          case Opcode::EqI:
            regs[instr.a].i = regs[instr.b].i == regs[instr.c].i;
            break;
          case Opcode::NeI:
            regs[instr.a].i = regs[instr.b].i != regs[instr.c].i;
            break;
          case Opcode::LtF:
            regs[instr.a].i = regs[instr.b].f < regs[instr.c].f;
            break;
          case Opcode::LeF:
            regs[instr.a].i = regs[instr.b].f <= regs[instr.c].f;
            break;
          case Opcode::GtF:
            regs[instr.a].i = regs[instr.b].f > regs[instr.c].f;
            break;
          case Opcode::GeF:
            regs[instr.a].i = regs[instr.b].f >= regs[instr.c].f;
            break;
          case Opcode::EqF:
            regs[instr.a].i = regs[instr.b].f == regs[instr.c].f;
            break;
          case Opcode::NeF:
            regs[instr.a].i = regs[instr.b].f != regs[instr.c].f;
            break;

          case Opcode::AndI:
            regs[instr.a].i = regs[instr.b].i & regs[instr.c].i;
            break;
          case Opcode::OrI:
            regs[instr.a].i = regs[instr.b].i | regs[instr.c].i;
            break;
          case Opcode::XorI:
            regs[instr.a].i = regs[instr.b].i ^ regs[instr.c].i;
            break;
          case Opcode::ShlI:
            regs[instr.a].i = shift_left(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::ShrI:
            regs[instr.a].i =
                shift_right_arith(regs[instr.b].i, regs[instr.c].i);
            break;

          case Opcode::IToF:
            regs[instr.a].f = static_cast<float>(regs[instr.b].i);
            break;
          case Opcode::FToI:
            regs[instr.a].i = float_to_int_rz(regs[instr.b].f);
            break;

          case Opcode::Sqrt:
            regs[instr.a].f = std::sqrt(regs[instr.b].f);
            break;
          case Opcode::Exp:
            regs[instr.a].f = std::exp(regs[instr.b].f);
            break;
          case Opcode::Log:
            regs[instr.a].f = std::log(regs[instr.b].f);
            break;
          case Opcode::Sin:
            regs[instr.a].f = std::sin(regs[instr.b].f);
            break;
          case Opcode::Cos:
            regs[instr.a].f = std::cos(regs[instr.b].f);
            break;
          case Opcode::Pow:
            regs[instr.a].f = std::pow(regs[instr.b].f, regs[instr.c].f);
            break;
          case Opcode::Fabs:
            regs[instr.a].f = std::fabs(regs[instr.b].f);
            break;
          case Opcode::Fmin:
            regs[instr.a].f = std::fmin(regs[instr.b].f, regs[instr.c].f);
            break;
          case Opcode::Fmax:
            regs[instr.a].f = std::fmax(regs[instr.b].f, regs[instr.c].f);
            break;
          case Opcode::Floor:
            regs[instr.a].f = std::floor(regs[instr.b].f);
            break;
          case Opcode::Lgamma:
            regs[instr.a].f = std::lgamma(regs[instr.b].f);
            break;
          case Opcode::Erf:
            regs[instr.a].f = std::erf(regs[instr.b].f);
            break;
          case Opcode::IMin:
            regs[instr.a].i = std::min(regs[instr.b].i, regs[instr.c].i);
            break;
          case Opcode::IMax:
            regs[instr.a].i = std::max(regs[instr.b].i, regs[instr.c].i);
            break;

          case Opcode::Gid: {
            const int dim = instr.imm.i;
            regs[instr.a].i = geometry_.group_id[dim] *
                                  geometry_.local_size[dim] +
                              lid[dim];
            break;
          }
          case Opcode::Lid:
            regs[instr.a].i = lid[instr.imm.i];
            break;
          case Opcode::GrpId:
            regs[instr.a].i = geometry_.group_id[instr.imm.i];
            break;
          case Opcode::LSize:
            regs[instr.a].i = geometry_.local_size[instr.imm.i];
            break;
          case Opcode::NGrp:
            regs[instr.a].i = geometry_.num_groups[instr.imm.i];
            break;
          case Opcode::GSize:
            regs[instr.a].i = geometry_.num_groups[instr.imm.i] *
                              geometry_.local_size[instr.imm.i];
            break;

          case Opcode::Ld: {
            const int slot = instr.imm.i;
            const BufferView& view = buffers_[slot];
            const std::int64_t index = regs[instr.b].i;
            regs[instr.a].i =
                checked_load(view, index, program_.buffers[slot].name);
            if (listener_) {
                listener_->on_access(static_cast<int>(pc), slot,
                                     program_.buffers[slot].space, index,
                                     false, global_linear,
                                     data::storage_bytes(view.codec));
            }
            break;
          }
          case Opcode::St: {
            const int slot = instr.imm.i;
            const BufferView& view = buffers_[slot];
            const std::int64_t index = regs[instr.a].i;
            checked_store(view, index, regs[instr.b].i,
                          program_.buffers[slot].name);
            if (listener_) {
                listener_->on_access(static_cast<int>(pc), slot,
                                     program_.buffers[slot].space, index,
                                     true, global_linear,
                                     data::storage_bytes(view.codec));
            }
            break;
          }

          case Opcode::AtomAdd:
          case Opcode::AtomMin:
          case Opcode::AtomMax:
          case Opcode::AtomInc:
          case Opcode::AtomAnd:
          case Opcode::AtomOr:
          case Opcode::AtomXor: {
            const int slot = instr.imm.i;
            const BufferView& view = buffers_[slot];
            const std::int64_t index = regs[instr.b].i;
            if (index < 0 || index >= view.size)
                trap_access("out-of-bounds atomic on",
                            program_.buffers[slot].name);
            // Atomics need a whole, exactly-stored word to CAS on; the
            // storage safety analysis pins atomic targets exact, so this
            // trap is defense-in-depth against hand-built plans.
            if (view.codec != data::Codec::Exact)
                trap_access("atomic on packed buffer",
                            program_.buffers[slot].name);
            if (listener_) {
                listener_->on_access(static_cast<int>(pc), slot,
                                     program_.buffers[slot].space, index,
                                     true, global_linear, 4);
            }
            regs[instr.a].i =
                atomic_op(instr.op, &view.data[index],
                          program_.buffers[slot].elem == ir::Scalar::F32,
                          regs[instr.c]);
            break;
          }

          case Opcode::Sel:
            regs[instr.a] = regs[instr.b].i != 0 ? regs[instr.c]
                                                 : regs[instr.d];
            break;

          case Opcode::Jmp:
            check_cancel();
            pc = instr.imm.i;
            continue;
          case Opcode::Jz:
            check_cancel();
            if (regs[instr.a].i == 0) {
                pc = instr.imm.i;
                continue;
            }
            break;

          case Opcode::Barrier:
            if (stop_at_barrier) {
                item.resume[0] = pc + 1;
                local_stats_.total_instructions += executed;
                return 1;
            }
            // A barrier in a 1-item group (or barrier-free schedule) is a
            // no-op.
            break;

          case Opcode::Halt:
            local_stats_.total_instructions += executed;
            return 0;

          default:
            PARAPROX_ASSERT(false,
                            "superinstruction in the canonical stream");
        }
        ++pc;
    }
}

/// Declare A, B and C, the register rows of the running instruction's a,
/// b and c operands.  Each lane macro declares them itself, so the rows
/// live only inside the opcode that uses them.
#define PARAPROX_OPERAND_ROWS                                           \
    [[maybe_unused]] Value* const A = regs + instr.a * width;           \
    [[maybe_unused]] const Value* const B = regs + instr.b * width;     \
    [[maybe_unused]] const Value* const C = regs + instr.c * width

/// Run `...` once per lane of the running split, in ascending lane order,
/// with `l` naming the lane.  A lone lane (a one-item group such as a
/// scalar program, or a split of one) runs without a loop; a fully
/// active chunk loops over its lanes directly; a split walks its lane
/// list.
#define PARAPROX_FOR_LANES(...)                                         \
    do {                                                                 \
        PARAPROX_OPERAND_ROWS;                                           \
        if (n == 1) {                                                    \
            const int l = lone;                                          \
            __VA_ARGS__;                                                 \
        } else if (uniform) {                                            \
            for (int l = 0; l < n; ++l) {                                \
                __VA_ARGS__;                                             \
            }                                                            \
        } else {                                                         \
            for (int k = 0; k < n; ++k) {                                \
                const int l = active[k];                                 \
                __VA_ARGS__;                                             \
            }                                                            \
        }                                                                \
    } while (0)

/// PARAPROX_FOR_LANES for an opcode that only reads and writes registers,
/// element by element.  Lane l touches only column l of each register
/// row, and two rows are either the same or disjoint, so no lane depends
/// on another.  Over a full chunk the trip count is the constant kLanes,
/// which lets the compiler vectorize the loop.
#define PARAPROX_MAP_LANES(...)                                         \
    do {                                                                 \
        if (full) {                                                      \
            PARAPROX_OPERAND_ROWS;                                       \
            _Pragma("GCC ivdep")                                         \
            for (int l = 0; l < kLanes; ++l) {                           \
                __VA_ARGS__;                                             \
            }                                                            \
        } else {                                                         \
            PARAPROX_FOR_LANES(__VA_ARGS__);                             \
        }                                                                \
    } while (0)

/// A CmpJz case for compare opcode @p op: writes each lane's flag like the
/// canonical compare, and collects the lanes whose flag is zero in `jump`.
#define PARAPROX_COMPARE_LANES(op, field, cmp)                          \
    case Opcode::op:                                                     \
        PARAPROX_FOR_LANES(const bool flag = B[l].field cmp C[l].field;  \
                           A[l].i = flag;                                \
                           jump |= static_cast<LaneMask>(!flag) << l);   \
        break

int
GroupRunner::run_chunk(Chunk& chunk, bool stop_at_barrier)
{
    const auto code_size =
        static_cast<std::int64_t>(fast_stream(program_).size());
    const int lanes = chunk.lanes;
    const LaneMask all = lanes_below(lanes);

    // The per-lane arrays below are sized for kLanes but left
    // uninitialized: only the first `lanes` entries are ever written or
    // read, so a one-lane chunk (a scalar program) pays for one lane.

    // Local ids of the lanes, stepped from lane 0's.
    std::int32_t lid[3][kLanes];
    {
        std::array<int, 3> id = local_id(chunk.first);
        for (int l = 0; l < lanes; ++l) {
            for (int dim = 0; dim < 3; ++dim)
                lid[dim][l] = id[dim];
            if (++id[0] == geometry_.local_size[0]) {
                id[0] = 0;
                if (++id[1] == geometry_.local_size[1]) {
                    id[1] = 0;
                    ++id[2];
                }
            }
        }
    }

    // The split table: one entry per distinct pc, sorted by descending pc.
    // The back entry, with the lowest pc, always runs next.  ParaCL lowers
    // control flow to forward branches plus loop back edges, so lanes that
    // branch ahead wait at the join (or loop exit) until the lanes behind
    // them catch up and merge.
    Split table[kLanes];
    int entries = 0;
    if (chunk.resume) {
        for (int l = 0; l < lanes; ++l)
            insert_split(table, entries, {chunk.resume[l], LaneMask{1} << l});
    } else {
        insert_split(table, entries, {0, all});
    }

    // Dispatches each lane has run in this call: the runaway budget is
    // per work-item.
    std::uint64_t executed[kLanes];
    std::fill_n(executed, lanes, 0);
    std::uint8_t active[kLanes];  // the running split's lanes, ascending
    int parked = 0;

    while (entries > 0) {
        const Split split = table[--entries];
        const bool uniform = split.lanes == all;
        int n = 0;
        std::uint64_t most = 0;  // the most dispatches any of its lanes ran
        if (uniform) {
            n = lanes;
            most = *std::max_element(executed, executed + n);
        } else {
            for (LaneMask m = split.lanes; m != 0; m &= m - 1) {
                const int l = std::countr_zero(m);
                active[n++] = static_cast<std::uint8_t>(l);
                most = std::max(most, executed[l]);
            }
        }

        Turn turn{.regs = chunk.regs,
                  .active = uniform ? nullptr : active,
                  .n = n,
                  .lid = lid,
                  .lanes = split.lanes,
                  .most = most,
                  .stop_at_barrier = stop_at_barrier,
                  .pc = split.pc,
                  .stop_pc = entries > 0 ? table[entries - 1].pc : code_size};
        run_split(turn);

        // Credit the split's dispatches to its lanes.
        local_stats_.total_instructions += turn.steps * n;
        for (int k = 0; k < n; ++k)
            executed[uniform ? k : active[k]] += turn.steps;

        const std::int64_t pc = turn.pc;
        switch (turn.end) {
          case SplitEnd::Reached:
            PARAPROX_ASSERT(pc >= 0 && pc < code_size, "pc out of range");
            insert_split(table, entries, {pc, split.lanes});
            break;
          case SplitEnd::Diverged:
            insert_split(table, entries, {pc, split.lanes & ~turn.taken});
            insert_split(table, entries, {turn.branch_to, turn.taken});
            break;
          case SplitEnd::Parked:
            for (int k = 0; k < n; ++k)
                chunk.resume[uniform ? k : active[k]] = pc;
            parked += n;
            break;
          case SplitEnd::Halted:
            break;
        }
    }
    return parked;
}

void
GroupRunner::run_split(Turn& turn)
{
    const Instr* const code = fast_stream(program_).data();
    Value* const regs = turn.regs;
    const std::ptrdiff_t width = width_;
    const std::uint8_t* const active = turn.active;
    const bool uniform = active == nullptr;
    const int n = turn.n;
    const bool full = uniform && n == kLanes;
    const int lone = uniform ? 0 : active[0];  // the lane, when n == 1
    const auto control_transfer = [this, &turn](std::uint64_t steps) {
        if (turn.most + steps > kMaxInstructionsPerItem)
            trap_budget();
        check_cancel();
    };

    // An instruction that ends the turn sets stop_pc to 0, which no pc is
    // below.
    std::int64_t pc = turn.pc;
    std::int64_t stop_pc = turn.stop_pc;
    std::uint64_t steps = 0;
    while (static_cast<std::uint64_t>(pc) <
           static_cast<std::uint64_t>(stop_pc)) {
        const Instr& instr = code[pc];
        ++steps;

        switch (instr.op) {
          case Opcode::Nop:
            break;
          case Opcode::LdImm: {
            const Value imm = instr.imm;
            PARAPROX_MAP_LANES(A[l] = imm);
            break;
          }
          case Opcode::Mov:
            PARAPROX_MAP_LANES(A[l] = B[l]);
            break;

          case Opcode::AddI:
            PARAPROX_MAP_LANES(A[l].i = wrap_add(B[l].i, C[l].i));
            break;
          case Opcode::SubI:
            PARAPROX_MAP_LANES(A[l].i = wrap_sub(B[l].i, C[l].i));
            break;
          case Opcode::MulI:
            PARAPROX_MAP_LANES(A[l].i = wrap_mul(B[l].i, C[l].i));
            break;
          case Opcode::DivI:
            PARAPROX_FOR_LANES(
                if (C[l].i == 0) trap("integer division by zero");
                A[l].i = wrap_div(B[l].i, C[l].i));
            break;
          case Opcode::ModI:
            PARAPROX_FOR_LANES(
                if (C[l].i == 0) trap("integer modulo by zero");
                A[l].i = wrap_mod(B[l].i, C[l].i));
            break;
          case Opcode::AddF:
            PARAPROX_MAP_LANES(A[l].f = B[l].f + C[l].f);
            break;
          case Opcode::SubF:
            PARAPROX_MAP_LANES(A[l].f = B[l].f - C[l].f);
            break;
          case Opcode::MulF:
            PARAPROX_MAP_LANES(A[l].f = B[l].f * C[l].f);
            break;
          case Opcode::DivF:
            PARAPROX_MAP_LANES(A[l].f = B[l].f / C[l].f);
            break;
          case Opcode::NegI:
            PARAPROX_MAP_LANES(A[l].i = wrap_neg(B[l].i));
            break;
          case Opcode::NegF:
            PARAPROX_MAP_LANES(A[l].f = -B[l].f);
            break;
          case Opcode::NotI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i == 0 ? 1 : 0);
            break;

          case Opcode::LtI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i < C[l].i);
            break;
          case Opcode::LeI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i <= C[l].i);
            break;
          case Opcode::GtI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i > C[l].i);
            break;
          case Opcode::GeI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i >= C[l].i);
            break;
          case Opcode::EqI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i == C[l].i);
            break;
          case Opcode::NeI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i != C[l].i);
            break;
          case Opcode::LtF:
            PARAPROX_MAP_LANES(A[l].i = B[l].f < C[l].f);
            break;
          case Opcode::LeF:
            PARAPROX_MAP_LANES(A[l].i = B[l].f <= C[l].f);
            break;
          case Opcode::GtF:
            PARAPROX_MAP_LANES(A[l].i = B[l].f > C[l].f);
            break;
          case Opcode::GeF:
            PARAPROX_MAP_LANES(A[l].i = B[l].f >= C[l].f);
            break;
          case Opcode::EqF:
            PARAPROX_MAP_LANES(A[l].i = B[l].f == C[l].f);
            break;
          case Opcode::NeF:
            PARAPROX_MAP_LANES(A[l].i = B[l].f != C[l].f);
            break;

          case Opcode::AndI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i & C[l].i);
            break;
          case Opcode::OrI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i | C[l].i);
            break;
          case Opcode::XorI:
            PARAPROX_MAP_LANES(A[l].i = B[l].i ^ C[l].i);
            break;
          case Opcode::ShlI:
            PARAPROX_MAP_LANES(A[l].i = shift_left(B[l].i, C[l].i));
            break;
          case Opcode::ShrI:
            PARAPROX_MAP_LANES(
                A[l].i = shift_right_arith(B[l].i, C[l].i));
            break;

          case Opcode::IToF:
            PARAPROX_MAP_LANES(A[l].f = static_cast<float>(B[l].i));
            break;
          case Opcode::FToI:
            PARAPROX_MAP_LANES(A[l].i = float_to_int_rz(B[l].f));
            break;

          case Opcode::Sqrt:
            PARAPROX_MAP_LANES(A[l].f = std::sqrt(B[l].f));
            break;
          case Opcode::Exp:
            PARAPROX_FOR_LANES(A[l].f = std::exp(B[l].f));
            break;
          case Opcode::Log:
            PARAPROX_FOR_LANES(A[l].f = std::log(B[l].f));
            break;
          case Opcode::Sin:
            PARAPROX_FOR_LANES(A[l].f = std::sin(B[l].f));
            break;
          case Opcode::Cos:
            PARAPROX_FOR_LANES(A[l].f = std::cos(B[l].f));
            break;
          case Opcode::Pow:
            PARAPROX_FOR_LANES(A[l].f = std::pow(B[l].f, C[l].f));
            break;
          case Opcode::Fabs:
            PARAPROX_MAP_LANES(A[l].f = std::fabs(B[l].f));
            break;
          case Opcode::Fmin:
            PARAPROX_MAP_LANES(A[l].f = std::fmin(B[l].f, C[l].f));
            break;
          case Opcode::Fmax:
            PARAPROX_MAP_LANES(A[l].f = std::fmax(B[l].f, C[l].f));
            break;
          case Opcode::Floor:
            PARAPROX_MAP_LANES(A[l].f = std::floor(B[l].f));
            break;
          case Opcode::Lgamma:
            PARAPROX_FOR_LANES(A[l].f = std::lgamma(B[l].f));
            break;
          case Opcode::Erf:
            PARAPROX_FOR_LANES(A[l].f = std::erf(B[l].f));
            break;
          case Opcode::IMin:
            PARAPROX_MAP_LANES(A[l].i = std::min(B[l].i, C[l].i));
            break;
          case Opcode::IMax:
            PARAPROX_MAP_LANES(A[l].i = std::max(B[l].i, C[l].i));
            break;

          case Opcode::Gid: {
            const int dim = instr.imm.i;
            const std::int32_t base =
                geometry_.group_id[dim] * geometry_.local_size[dim];
            const std::int32_t* ids = turn.lid[dim];
            PARAPROX_MAP_LANES(A[l].i = base + ids[l]);
            break;
          }
          case Opcode::Lid: {
            const std::int32_t* ids = turn.lid[instr.imm.i];
            PARAPROX_MAP_LANES(A[l].i = ids[l]);
            break;
          }
          case Opcode::GrpId: {
            const std::int32_t value = geometry_.group_id[instr.imm.i];
            PARAPROX_MAP_LANES(A[l].i = value);
            break;
          }
          case Opcode::LSize: {
            const std::int32_t value =
                geometry_.local_size[instr.imm.i];
            PARAPROX_MAP_LANES(A[l].i = value);
            break;
          }
          case Opcode::NGrp: {
            const std::int32_t value =
                geometry_.num_groups[instr.imm.i];
            PARAPROX_MAP_LANES(A[l].i = value);
            break;
          }
          case Opcode::GSize: {
            const std::int32_t value =
                geometry_.num_groups[instr.imm.i] *
                geometry_.local_size[instr.imm.i];
            PARAPROX_MAP_LANES(A[l].i = value);
            break;
          }

          case Opcode::Ld: {
            const int slot = instr.imm.i;
            const BufferView view = buffers_[slot];
            const std::string& name = program_.buffers[slot].name;
            PARAPROX_FOR_LANES(A[l].i = checked_load(view, B[l].i, name));
            break;
          }
          case Opcode::St: {
            const int slot = instr.imm.i;
            const BufferView view = buffers_[slot];
            const std::string& name = program_.buffers[slot].name;
            PARAPROX_FOR_LANES(checked_store(view, A[l].i, B[l].i, name));
            break;
          }

          case Opcode::AtomAdd:
          case Opcode::AtomMin:
          case Opcode::AtomMax:
          case Opcode::AtomInc:
          case Opcode::AtomAnd:
          case Opcode::AtomOr:
          case Opcode::AtomXor: {
            const int slot = instr.imm.i;
            const BufferView view = buffers_[slot];
            const Opcode op = instr.op;
            const bool is_float_elem =
                program_.buffers[slot].elem == ir::Scalar::F32;
            PARAPROX_FOR_LANES(
                const std::int64_t index = B[l].i;
                if (index < 0 || index >= view.size)
                    trap_access("out-of-bounds atomic on",
                                program_.buffers[slot].name);
                if (view.codec != data::Codec::Exact)
                    trap_access("atomic on packed buffer",
                                program_.buffers[slot].name);
                A[l].i = atomic_op(op, &view.data[index],
                                   is_float_elem, C[l]));
            break;
          }

          case Opcode::Sel: {
            const Value* const D = regs + instr.d * width;
            PARAPROX_MAP_LANES(A[l] = B[l].i != 0 ? C[l] : D[l]);
            break;
          }

          case Opcode::Jmp:
            control_transfer(steps);
            pc = instr.imm.i;
            continue;
          case Opcode::Jz:
          case Opcode::CmpJz: {
            control_transfer(steps);
            LaneMask jump = 0;  // the lanes whose flag is zero
            if (instr.op == Opcode::Jz) {
                PARAPROX_FOR_LANES(
                    jump |= static_cast<LaneMask>(A[l].i == 0) << l);
            } else {
                switch (static_cast<Opcode>(instr.d)) {
                  PARAPROX_COMPARE_LANES(LtI, i, <);
                  PARAPROX_COMPARE_LANES(LeI, i, <=);
                  PARAPROX_COMPARE_LANES(GtI, i, >);
                  PARAPROX_COMPARE_LANES(GeI, i, >=);
                  PARAPROX_COMPARE_LANES(EqI, i, ==);
                  PARAPROX_COMPARE_LANES(NeI, i, !=);
                  PARAPROX_COMPARE_LANES(LtF, f, <);
                  PARAPROX_COMPARE_LANES(LeF, f, <=);
                  PARAPROX_COMPARE_LANES(GtF, f, >);
                  PARAPROX_COMPARE_LANES(GeF, f, >=);
                  PARAPROX_COMPARE_LANES(EqF, f, ==);
                  PARAPROX_COMPARE_LANES(NeF, f, !=);
                  default:
                    PARAPROX_ASSERT(false,
                                    "CmpJz carries a non-compare opcode");
                }
            }
            if (jump == turn.lanes) {
                pc = instr.imm.i;
                continue;
            }
            if (jump != 0) {
                turn.end = SplitEnd::Diverged;
                turn.taken = jump;
                turn.branch_to = instr.imm.i;
                stop_pc = 0;
            }
            break;
          }

          case Opcode::Barrier:
            // Outside a cooperative round a barrier is a no-op.
            if (turn.stop_at_barrier) {
                turn.end = SplitEnd::Parked;
                stop_pc = 0;
            }
            break;

          case Opcode::Halt:
            turn.end = SplitEnd::Halted;
            stop_pc = 0;
            break;

          // ---- Superinstructions (fast_code only) ------------------
          // Each case runs its canonical pair as two lockstep steps:
          // the first instruction's destination register is written in
          // every lane before the second instruction reads its
          // operands, so register aliasing between the two halves
          // behaves exactly as unfused.

          case Opcode::LdAddF:
          case Opcode::LdMulF:
          case Opcode::LdSubF:
          case Opcode::LdAddI: {
            const int slot = instr.imm.i & kFusedRegMask;
            const BufferView view = buffers_[slot];
            const std::string& name = program_.buffers[slot].name;
            Value* const D = regs + instr.d * width;
            PARAPROX_FOR_LANES(D[l].i = checked_load(view, B[l].i, name));
            // The swap flag keeps the canonical operand order, for
            // bit-exact NaN propagation.
            const bool swapped = (instr.imm.i & kFusedSwapFlag) != 0;
            const Value* const other = regs + instr.c * width;
            const Value* const X = swapped ? other : D;
            const Value* const Y = swapped ? D : other;
            if (instr.op == Opcode::LdAddF)
                PARAPROX_MAP_LANES(A[l].f = X[l].f + Y[l].f);
            else if (instr.op == Opcode::LdMulF)
                PARAPROX_MAP_LANES(A[l].f = X[l].f * Y[l].f);
            else if (instr.op == Opcode::LdSubF)
                PARAPROX_MAP_LANES(A[l].f = X[l].f - Y[l].f);
            else
                PARAPROX_MAP_LANES(A[l].i = wrap_add(X[l].i, Y[l].i));
            break;
          }

          case Opcode::AddFSt:
          case Opcode::MulFSt:
          case Opcode::AddISt: {
            Value* const D = regs + instr.d * width;
            if (instr.op == Opcode::AddFSt)
                PARAPROX_MAP_LANES(D[l].f = B[l].f + C[l].f);
            else if (instr.op == Opcode::MulFSt)
                PARAPROX_MAP_LANES(D[l].f = B[l].f * C[l].f);
            else
                PARAPROX_MAP_LANES(D[l].i = wrap_add(B[l].i, C[l].i));
            // The store's index register may be d itself.
            const int slot = instr.imm.i;
            const BufferView view = buffers_[slot];
            const std::string& name = program_.buffers[slot].name;
            PARAPROX_FOR_LANES(checked_store(view, A[l].i, D[l].i, name));
            break;
          }

          case Opcode::MaddF: {
            Value* const T = regs + (instr.imm.i & kFusedRegMask) * width;
            const bool swapped = (instr.imm.i & kFusedSwapFlag) != 0;
            Value* const D = regs + instr.d * width;
            PARAPROX_MAP_LANES(
                const float product = B[l].f * C[l].f;
                T[l].f = product;
                // Addend read after the product write (it may be the
                // same register); operand order preserved for
                // bit-exact NaN/FP behaviour.
                const float addend = D[l].f;
                A[l].f = swapped ? addend + product : product + addend);
            break;
          }
          case Opcode::MaddI: {
            Value* const T = regs + instr.imm.i * width;
            Value* const D = regs + instr.d * width;
            PARAPROX_MAP_LANES(
                const std::int32_t product = wrap_mul(B[l].i, C[l].i);
                T[l].i = product;
                A[l].i = wrap_add(D[l].i, product));
            break;
          }
        }
        ++pc;
    }
    turn.pc = pc;
    turn.steps = steps;
}

#undef PARAPROX_COMPARE_LANES
#undef PARAPROX_MAP_LANES
#undef PARAPROX_FOR_LANES
#undef PARAPROX_OPERAND_ROWS

Value
run_scalar_program(const Program& program, const std::vector<Value>& args)
{
    PARAPROX_CHECK(program.buffers.empty(),
                   "scalar program must not take buffers");
    GroupGeometry geometry;  // one work-item
    // Host-side scalar evaluation (table population, bit tuning) never
    // consumes stats, so take the fast loop.
    GroupRunner runner(program, {}, args, {}, geometry, nullptr, nullptr,
                       ExecMode::Fast);
    runner.run();
    PARAPROX_ASSERT(!runner.final_regs().empty(),
                    "scalar program produced no registers");
    return runner.final_regs()[0];
}

}  // namespace paraprox::vm
