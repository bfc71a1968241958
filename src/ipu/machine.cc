#include "ipu/machine.hh"

#include <algorithm>
#include <ostream>
#include <map>
#include <thread>

#include "util/logging.hh"

namespace parendi::ipu {

using namespace rtl;
using fiber::FiberSet;
using partition::Partitioning;
using partition::Process;

IpuMachine::IpuMachine(const FiberSet &fs, const Partitioning &parts,
                       const IpuArch &arch_, const MachineOptions &opt_)
    : nl(fs.netlist()), arch(arch_), opt(opt_)
{
    parts.checkComplete(fs);
    buildTiles(fs, parts);
    accountCosts(fs, parts);
    hostWorkers_ = std::min<uint32_t>(
        opt.hostThreads, static_cast<uint32_t>(tiles.size()));
    // Same worker cap as the par engine: tiles far outnumber cores
    // (thousands of shards), so host workers track the host's real
    // parallelism, not the tile count.
    const uint32_t maxw = opt.maxHostWorkers
        ? opt.maxHostWorkers
        : std::max(1u, std::thread::hardware_concurrency());
    hostWorkers_ = std::min(hostWorkers_, maxw);
    if (hostWorkers_ >= 2)
        pool = std::make_unique<util::BspPool>(hostWorkers_);
}

void
IpuMachine::buildTiles(const FiberSet &fs, const Partitioning &parts)
{
    // Per-chip process counts and capacity check.
    uint32_t max_chip = 0;
    std::vector<uint32_t> per_chip(arch.maxChips, 0);
    for (const Process &p : parts.processes) {
        if (p.chip < 0 || p.chip >= static_cast<int>(arch.maxChips))
            fatal("process assigned to chip %d outside machine (max %u)",
                  p.chip, arch.maxChips);
        uint32_t chip = static_cast<uint32_t>(p.chip);
        max_chip = std::max(max_chip, chip);
        if (++per_chip[chip] > arch.tilesPerChip)
            fatal("chip %u needs more than %u tiles", chip,
                  arch.tilesPerChip);
    }
    chipsUsed_ = 0;
    for (uint32_t c = 0; c < arch.maxChips; ++c)
        if (per_chip[c])
            ++chipsUsed_;

    // Tile placement metadata plus one node set per tile: the union
    // of the process's fiber cones, in ascending node id
    // (construction order is topological by construction of the
    // Netlist API).
    tiles.reserve(parts.processes.size());
    std::vector<std::vector<NodeId>> nodeSets;
    nodeSets.reserve(parts.processes.size());
    std::vector<uint32_t> next_in_chip(arch.maxChips, 0);
    for (const Process &p : parts.processes) {
        uint32_t chip = static_cast<uint32_t>(p.chip);
        Tile t;
        t.chip = chip;
        t.id = chip * arch.tilesPerChip + next_in_chip[chip]++;
        t.computeCycles =
            p.ipuCost + static_cast<uint64_t>(arch.tileLoopOverhead);

        std::vector<NodeId> nodes;
        for (uint32_t fi : p.fibers)
            nodes = partition::sortedUnion(nodes, fs[fi].cone);
        nodeSets.push_back(std::move(nodes));

        uint64_t mem = p.memBytes(fs);
        maxTileMem = std::max(maxTileMem, mem);
        maxTileCode = std::max(maxTileCode, p.codeBytes);
        if (mem > arch.tileMemoryBytes)
            fatal("process on tile %u needs %llu bytes > tile memory "
                  "%llu", t.id, static_cast<unsigned long long>(mem),
                  static_cast<unsigned long long>(arch.tileMemoryBytes));
        tiles.push_back(t);
    }
    if (maxTileCode > arch.tileCodeBytes)
        warn("largest tile code footprint %llu exceeds the %llu-byte "
             "executable region",
             static_cast<unsigned long long>(maxTileCode),
             static_cast<unsigned long long>(arch.tileCodeBytes));

    // Lower every tile program and derive the exchange schedule.
    shards = ShardSet(nl, nodeSets, opt.lower);
}

void
IpuMachine::accountCosts(const FiberSet &fs, const Partitioning &parts)
{
    (void)fs;
    (void)parts;
    // t_comp: the straggler tile.
    uint64_t max_comp = 0;
    for (const Tile &t : tiles)
        max_comp = std::max(max_comp, t.computeCycles);
    costs.tComp = static_cast<double>(max_comp);

    // Exchange traffic. The IPU exchange can multicast: a sender
    // transmits a value once and any number of same-chip tiles
    // listen, so sender-side serialization is counted once per value
    // while each receiver pays for what it receives; the fabric
    // (congestion) term counts delivered copies.
    std::vector<uint64_t> tile_on_bytes(tiles.size(), 0);
    std::vector<uint64_t> chip_on_bytes(arch.maxChips, 0);
    uint64_t off_bytes = 0;
    auto account = [&](uint32_t from, uint32_t to, uint64_t bytes,
                       bool first_copy) {
        if (tiles[from].chip == tiles[to].chip) {
            if (first_copy)
                tile_on_bytes[from] += bytes;
            tile_on_bytes[to] += bytes;
            chip_on_bytes[tiles[from].chip] += bytes;
        } else {
            // One serialized copy per (value, remote chip).
            if (first_copy)
                off_bytes += bytes;
        }
    };
    {
        // Group per (owner tile, register value) to mark the first
        // same-chip copy and the first copy per remote chip.
        std::map<std::pair<uint32_t, uint32_t>, std::vector<bool>>
            seen; // (owner, slot) -> per-chip first-copy flags
        for (const ShardSet::RegMessage &m : shards.regMessages()) {
            auto key = std::make_pair(m.ownerShard, m.ownerSlot);
            auto &flags = seen[key];
            if (flags.empty())
                flags.assign(arch.maxChips, false);
            uint32_t chip = tiles[m.readerShard].chip;
            bool first = !flags[chip];
            flags[chip] = true;
            account(m.ownerShard, m.readerShard, m.bytes, first);
        }
    }
    for (const ShardSet::PortBroadcast &b : shards.broadcasts()) {
        uint64_t diff_bytes =
            uint64_t{(b.addrWidth + 1u + 31u) / 32u} * 4 +
            uint64_t{(nl.mem(b.mem).width + 31u) / 32u} * 4;
        uint64_t full_bytes = nl.mem(b.mem).sizeBytes();
        std::vector<bool> flags(arch.maxChips, false);
        for (auto [tile, mi] : b.replicas) {
            (void)mi;
            if (tile == b.ownerShard)
                continue;
            uint32_t chip = tiles[tile].chip;
            bool first = !flags[chip];
            flags[chip] = true;
            account(b.ownerShard, tile,
                    opt.differentialExchange ? diff_bytes : full_bytes,
                    first);
        }
    }

    traffic_ = ExchangeTraffic{};
    traffic_.chips = chipsUsed_;
    for (uint64_t b : tile_on_bytes)
        traffic_.maxTileOnChipBytes =
            std::max(traffic_.maxTileOnChipBytes, b);
    for (uint64_t b : chip_on_bytes)
        traffic_.totalOnChipBytes += b;
    traffic_.totalOffChipBytes = off_bytes;

    uint64_t max_chip_bytes = 0;
    for (uint64_t b : chip_on_bytes)
        max_chip_bytes = std::max(max_chip_bytes, b);
    costs.tCommOn = onChipExchangeCycles(
        arch, traffic_.maxTileOnChipBytes, max_chip_bytes);
    costs.tCommOff = offChipExchangeCycles(arch, off_bytes);
    costs.tSync =
        2.0 * arch.barrierCycles(tilesUsed(), chipsUsed_);
}

void
IpuMachine::step(size_t n)
{
    size_t done = 0;
    while (done < n) {
        const size_t k =
            opt.batch ? std::min(opt.batch, n - done) : n - done;
        shards.stepCycles(pool.get(), k);
        done += k;
        cycleCount += k;
    }
}

bool
IpuMachine::enableProfiling(const obs::ProfileOptions &popt)
{
    if (profiler_)
        return true;
    uint32_t workers = pool ? pool->threads() : 1;
    profiler_ = std::make_unique<obs::SuperstepProfiler>(
        workers, shards.size(), popt);
    shards.setProfiler(profiler_.get());
    if (pool)
        pool->setWaitObserver(profiler_.get());
    return true;
}

void
IpuMachine::reset()
{
    shards.reset();
    cycleCount = 0;
}

void
IpuMachine::save(std::ostream &out) const
{
    out.write(reinterpret_cast<const char *>(&cycleCount),
              sizeof(cycleCount));
    shards.save(out);
}

} // namespace parendi::ipu
