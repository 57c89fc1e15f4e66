#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace rsnsec::cli {

/// Entry point of the `rsnsec` command-line tool (separated from main()
/// so tests can drive it in-process).
///
/// Commands:
///   rsnsec generate --benchmark NAME [--scale S] [--seed N]
///                   --out-rsn F [--out-verilog F] [--out-spec F]
///   rsnsec info     (--rsn F | --icl F [--top NAME])
///   rsnsec analyze  --rsn F --verilog F --spec F [--structural] [--json]
///   rsnsec secure   --rsn F --verilog F --spec F --out F [--json]
///                   [--verify]
///   rsnsec certify  --rsn F --verilog F --spec F [--json] [--no-ternary]
///   rsnsec lint     FILE... [--json] [--top NAME]
///
/// `lint` statically checks the given files (.rsn/.icl network,
/// .v circuit, .spec specification — any subset, cross-checked when
/// combined) with the src/lint diagnostics passes. `certify`
/// independently re-verifies a (secured) design against its spec with
/// the SAT-free abstract interpreter of src/flow (CERT0xx diagnostics).
/// `secure --verify` additionally runs the lint invariant pass after
/// every applied RSN change (PipelineOptions::verify_invariants) and the
/// certifier on the final network (PipelineOptions::verify_certify).
/// The paper's studies and the subsystem benchmarks are separate programs:
/// build/bench/ablation_structural prints the Sec. IV-C structural-vs-exact
/// ablation, and build/bench/micro_benchmarks runs the attack, scale and
/// serve suites (--benchmark_filter='^Attack_', '^Scale_MBIST',
/// '^ServeReplay_').
///
/// Returns the process exit code (0 = success, 2 = usage error such as an
/// unknown command; for `analyze`, 0 also means "no violations found" and
/// 2 means "violations found"; for `lint` and `certify`, 0 means "no
/// error-severity diagnostics" and 2 means at least one error was
/// reported).
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace rsnsec::cli
