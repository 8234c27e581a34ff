#include "runtime/input.h"

#include <mutex>

namespace paraprox::runtime {

struct Input::State {
    explicit State(std::uint64_t s) : seed(s) {}

    const std::uint64_t seed;
    std::once_flag once;
    /// Written once under `once`; read-only afterwards.
    std::shared_ptr<const InputFamily> family;
    std::shared_ptr<const InputBuild> build;
};

namespace {

std::shared_ptr<const InputBuild>
make_build(const InputFamily& family, std::uint64_t seed)
{
    auto build = std::make_shared<InputBuild>(family.size());
    for (std::size_t s = 0; s < family.size(); ++s)
        family[s](seed, (*build)[s].args, (*build)[s].storage);
    return build;
}

}  // namespace

Input::Input(std::uint64_t seed) : state_(std::make_shared<State>(seed)) {}

std::uint64_t
Input::seed() const
{
    return state_->seed;
}

std::shared_ptr<const InputBuild>
Input::build(const std::shared_ptr<const InputFamily>& family) const
{
    // A throwing build leaves the flag unset, so the next caller retries.
    std::call_once(state_->once, [&] {
        state_->build = make_build(*family, state_->seed);
        state_->family = family;
    });
    if (state_->family == family)
        return state_->build;
    return make_build(*family, state_->seed);
}

std::vector<std::string>
written_buffers(const vm::Program& program)
{
    std::vector<bool> written(program.buffers.size(), false);
    for (const vm::Instr& instr : program.code) {
        const bool writes =
            instr.op == vm::Opcode::St ||
            (instr.op >= vm::Opcode::AtomAdd &&
             instr.op <= vm::Opcode::AtomXor);
        const auto slot = static_cast<std::size_t>(instr.imm.i);
        if (writes && slot < written.size())
            written[slot] = true;
    }
    std::vector<std::string> names;
    for (std::size_t slot = 0; slot < program.buffers.size(); ++slot) {
        // __shared scratch is per group, never bound from an input.
        if (written[slot] &&
            program.buffers[slot].space != ir::AddrSpace::Shared)
            names.push_back(program.buffers[slot].name);
    }
    return names;
}

exec::ArgPack
launch_args(const BoundArgs& built, const std::vector<std::string>& written,
            std::vector<std::unique_ptr<exec::Buffer>>& storage)
{
    exec::ArgPack args = built.args;
    for (const std::string& name : written) {
        // Absent names are bound by the caller: an upstream stage's
        // output, a lookup table.
        if (const exec::Buffer* shared = built.args.find_buffer(name)) {
            storage.push_back(std::make_unique<exec::Buffer>(*shared));
            args.buffer(name, *storage.back());
        }
    }
    return args;
}

}  // namespace paraprox::runtime
