/**
 * @file
 * core::SimEngine's name-based host access layer (declared in
 * core/engine.hh). Built into parendi_rtl so every engine library
 * links it without depending on parendi_core.
 */

#include "core/engine.hh"
#include "util/logging.hh"

namespace parendi::core {

namespace {

void
checkLane(const char *call, uint32_t lane, uint32_t replicas)
{
    if (lane >= replicas)
        fatal("%s: lane %u out of range (replicas=%u)", call, lane,
              replicas);
}

rtl::PortId
inputId(const rtl::Netlist &nl, const std::string &name)
{
    rtl::PortId id = nl.findInput(name);
    if (id == nl.numInputs())
        fatal("no input port named %s", name.c_str());
    return id;
}

rtl::PortId
outputId(const rtl::Netlist &nl, const std::string &name)
{
    rtl::PortId id = nl.findOutput(name);
    if (id == nl.numOutputs())
        fatal("no output port named %s", name.c_str());
    return id;
}

rtl::RegId
registerId(const rtl::Netlist &nl, const std::string &name)
{
    rtl::RegId id = nl.findRegister(name);
    if (id == nl.numRegisters())
        fatal("no register named %s", name.c_str());
    return id;
}

} // namespace

void
SimEngine::pokeLane(const std::string &input, const rtl::BitVec &value,
                    uint32_t lane)
{
    rtl::PortId id = inputId(netlist(), input);
    uint32_t width = netlist().input(id).width;
    if (value.width() != width)
        fatal("poke %s: width %u != port width %u", input.c_str(),
              value.width(), width);
    if (lane != kAllLanes)
        checkLane("pokeLane", lane, replicas());
    pokeInput(id, value, lane);
}

void
SimEngine::pokeLane(const std::string &input, uint64_t value,
                    uint32_t lane)
{
    rtl::PortId id = inputId(netlist(), input);
    if (lane != kAllLanes)
        checkLane("pokeLane", lane, replicas());
    pokeInput(id, rtl::BitVec(netlist().input(id).width, value), lane);
}

rtl::BitVec
SimEngine::peekLane(const std::string &output, uint32_t lane) const
{
    rtl::PortId id = outputId(netlist(), output);
    checkLane("peekLane", lane, replicas());
    rtl::BitVec v;
    readOutput(id, lane, v);
    return v;
}

rtl::BitVec
SimEngine::peekRegisterLane(const std::string &reg, uint32_t lane) const
{
    rtl::RegId id = registerId(netlist(), reg);
    checkLane("peekRegisterLane", lane, replicas());
    rtl::BitVec v;
    readRegister(id, lane, v);
    return v;
}

rtl::BitVec
SimEngine::peekMemoryLane(const std::string &mem, uint64_t index,
                          uint32_t lane) const
{
    const rtl::Netlist &nl = netlist();
    rtl::MemId id = nl.findMemory(mem);
    if (id == nl.numMemories())
        fatal("no memory named %s", mem.c_str());
    if (index >= nl.mem(id).depth)
        fatal("memory %s index %llu out of range", mem.c_str(),
              static_cast<unsigned long long>(index));
    checkLane("peekMemoryLane", lane, replicas());
    rtl::BitVec v;
    readMemory(id, index, lane, v);
    return v;
}

void
SimEngine::peekInto(const std::string &output, rtl::BitVec &out) const
{
    readOutput(outputId(netlist(), output), 0, out);
}

void
SimEngine::peekRegisterInto(const std::string &reg,
                            rtl::BitVec &out) const
{
    readRegister(registerId(netlist(), reg), 0, out);
}

} // namespace parendi::core
