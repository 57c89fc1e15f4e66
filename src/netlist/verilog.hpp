#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace rsnsec::netlist::verilog {

/// Result of parsing a structural Verilog module.
struct ParsedCircuit {
  Netlist netlist;
  /// Net name -> producing node (inputs, gate outputs, flip-flop outputs).
  std::map<std::string, NodeId> nets;
  /// Declared output port names, in declaration order.
  std::vector<std::string> outputs;
  std::string module_name;
};

/// Parses a flat structural Verilog subset:
///
///   module top(a, b, y);
///     input a, b;
///     output y;
///     wire w1;
///     and g1(w1, a, b);            // and/or/nand/nor/xor/xnor (n-ary)
///     not (y, w1);                 // not/buf (instance name optional)
///     mux m1(y2, sel, d0, d1);     // 2:1 mux primitive
///     (* instrument = "aes" *)     // optional module/instrument tag
///     dff q1(q, d);                // D flip-flop primitive
///   endmodule
///
/// Port directions may also be declared in the header
/// ("module top(input a, output y);"). Gates may appear in any order;
/// combinational loops are rejected. An `(* instrument = "name" *)`
/// attribute assigns the following primitive to that named instrument
/// (netlist module); instruments are created on first use.
///
/// Constants 1'b0/1'b1 are allowed as gate and flip-flop inputs. Each
/// occurrence becomes its own Const0/Const1 node, created right before
/// the node that reads it, so the netlist holds no unused constants.
///
/// Node order: inputs in declaration order, then flip-flops in file
/// order, then gates as if the unresolved gates were retried in file
/// order, pass after pass, until all exist. The reader computes that
/// order in one sweep, in time linear in the file size.
///
/// Throws std::runtime_error with a line-numbered message on errors,
/// among them "unexpected end of file" for a port or primitive argument
/// list cut off by the end of the input. When gates cannot be created
/// (a combinational loop or an undriven wire), the message names the
/// first such gate in the file.
ParsedCircuit parse(std::istream& is);

/// Writes `nl` as a flat structural Verilog module named `name`, using
/// the subset accepted by parse() (instrument attributes included).
/// Nodes without names get synthetic ones ("n<id>").
void write(std::ostream& os, const Netlist& nl,
           const std::string& name = "top");

}  // namespace rsnsec::netlist::verilog
