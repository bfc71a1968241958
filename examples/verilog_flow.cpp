/**
 * @file
 * The full Verilog flow, end to end: write a .v design to disk
 * (a two-stage pipelined checksum unit with a lookup memory), parse
 * it with the Verilog frontend, compile it for the IPU system, run
 * it, and dump a waveform for the same run via the reference
 * interpreter.
 *
 * Run: ./verilog_flow [cycles]            (default: 200)
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/compiler.hh"
#include "frontend/verilog.hh"
#include "rtl/interp.hh"
#include "rtl/vcd.hh"

using namespace parendi;

namespace {

const char *kDesign = R"(
// A two-stage checksum pipeline: stage 1 mixes an LFSR sample with a
// table lookup; stage 2 folds it into a running checksum.
module checksum(input clk, output [31:0] sum, output [15:0] probe);
  reg [15:0] lfsr = 16'hbeef;
  wire fb = lfsr[0] ^ lfsr[2] ^ lfsr[3] ^ lfsr[5];

  reg [31:0] table_rom [0:15];
  reg [3:0]  wr_ptr = 0;

  reg [31:0] stage1 = 0;
  reg [31:0] acc = 0;

  assign sum = acc;
  assign probe = lfsr;

  always @(posedge clk) begin
    lfsr <= {fb, lfsr[15:1]};
    // keep the table churning so lookups change over time
    table_rom[wr_ptr] <= {16'd0, lfsr} * 32'd2654435761;
    wr_ptr <= wr_ptr + 4'd1;

    stage1 <= table_rom[lfsr[3:0]] ^ {16'd0, lfsr};
    acc <= (acc << 1) + stage1;
  end
endmodule
)";

} // namespace

int
main(int argc, char **argv)
{
    uint64_t cycles =
        argc > 1 ? static_cast<uint64_t>(atoll(argv[1])) : 200;

    const char *path = "checksum.v";
    {
        std::ofstream f(path);
        f << kDesign;
    }

    rtl::Netlist nl = frontend::parseVerilogFile(path);
    std::printf("parsed %s: %zu nodes, %zu regs, %zu memories\n",
                path, nl.numNodes(), nl.numRegisters(),
                nl.numMemories());

    // Waveform of the first 32 cycles via the golden interpreter.
    {
        rtl::Interpreter tracer_sim(nl);
        std::ofstream vcdOut("checksum.vcd");
        rtl::VcdWriter vcd(vcdOut);
        rtl::EngineTracer tracer(tracer_sim, vcd);
        tracer.step(32);
        std::printf("wrote checksum.vcd (32 cycles of every "
                    "register)\n");
    }

    // Compile onto the IPU machine and run the full length.
    core::CompilerOptions opt;
    opt.tilesPerChip = 8;
    rtl::Interpreter golden(nl);
    auto sim = core::compile(std::move(nl), opt);
    sim->step(cycles);
    golden.step(cycles);

    std::printf("after %llu cycles: sum=0x%s probe=0x%s\n",
                static_cast<unsigned long long>(cycles),
                sim->machine().peek("sum").toHex().c_str(),
                sim->machine().peek("probe").toHex().c_str());
    bool ok = sim->machine().peek("sum") == golden.peek("sum");
    std::printf("golden model agrees: %s\n", ok ? "yes" : "NO");
    std::printf("modeled IPU rate: %.1f kHz on %u tiles\n",
                sim->rateKHz(), sim->machine().tilesUsed());
    std::remove(path);
    std::remove("checksum.vcd");
    return ok ? 0 : 1;
}
