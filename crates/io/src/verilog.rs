//! Structural Verilog reading and writing for mapped standard-cell netlists.
//!
//! The reader accepts the flat gate-level subset that [`write_verilog`]
//! emits and is hardened against untrusted input: every malformed shape
//! returns [`ParseVerilogError`], never a panic.

// Text keys from outside: net names come from untrusted files, so the
// name table keeps std's keyed SipHash.
#![allow(clippy::disallowed_types)]

use mch_mapper::{CellNetlist, NetRef};
use mch_techlib::Library;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Error produced while parsing a structural Verilog file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseVerilogError {
    message: String,
}

impl ParseVerilogError {
    fn new(message: impl Into<String>) -> Self {
        ParseVerilogError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseVerilogError {}

/// Resolves a net token against the declared wires and constants.
fn resolve_net(
    nets: &HashMap<String, NetRef>,
    token: &str,
) -> Result<NetRef, ParseVerilogError> {
    match token {
        "1'b0" => Ok(NetRef::Const(false)),
        "1'b1" => Ok(NetRef::Const(true)),
        name => nets
            .get(name)
            .copied()
            .ok_or_else(|| ParseVerilogError::new(format!("net '{name}' used before definition"))),
    }
}

/// Parses the flat structural subset of Verilog back into a
/// [`CellNetlist`], resolving instances against `library` by cell name.
///
/// Supported: one `module` with `input`/`output`/`wire` declarations, cell
/// instances with named pin connections (`.A(net), …, .Y(out)`), constant
/// nets `1'b0`/`1'b1`, `assign` output buffers and `//` comments. Instances
/// must appear in topological order (fanins before use), which every
/// tool-written netlist satisfies.
///
/// # Errors
///
/// Returns [`ParseVerilogError`] for unknown cells, pin-count mismatches,
/// undefined or redefined nets and truncated files.
pub fn read_verilog(text: &str, library: &Library) -> Result<CellNetlist, ParseVerilogError> {
    // Strip comments, then split statements on ';' ('module ... );' headers
    // keep their port list inside one statement).
    let stripped: String = text
        .lines()
        .map(|l| match l.find("//") {
            Some(pos) => &l[..pos],
            None => l,
        })
        .collect::<Vec<_>>()
        .join("\n");

    let mut module_name: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut output_assigns: Vec<(String, String)> = Vec::new();
    let mut declared_outputs: Vec<String> = Vec::new();
    // (cell, [(pin, net)]) in instantiation order.
    let mut instances: Vec<(String, Vec<(String, String)>)> = Vec::new();

    for raw in stripped.split(';') {
        let stmt = raw.trim();
        if stmt.is_empty() || stmt == "endmodule" || stmt.ends_with("endmodule") {
            // A trailing 'endmodule' has no ';'; it may share the final
            // fragment with whitespace only.
            if stmt
                .strip_suffix("endmodule")
                .is_some_and(|rest| !rest.trim().is_empty())
            {
                return Err(ParseVerilogError::new(format!(
                    "unparsed text before endmodule: '{stmt}'"
                )));
            }
            continue;
        }
        let (head, rest) = stmt.split_once(char::is_whitespace).unwrap_or((stmt, ""));
        match head {
            "module" => {
                let name = rest
                    .split(['(', ' ', '\n', '\t'])
                    .find(|s| !s.trim().is_empty())
                    .unwrap_or("top");
                module_name = Some(name.trim().to_string());
            }
            "input" => inputs.extend(
                rest.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty()),
            ),
            "output" => declared_outputs.extend(
                rest.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty()),
            ),
            "wire" => {}
            "assign" => {
                let Some((lhs, rhs)) = rest.split_once('=') else {
                    return Err(ParseVerilogError::new(format!(
                        "assign without '=': '{stmt}'"
                    )));
                };
                output_assigns.push((lhs.trim().to_string(), rhs.trim().to_string()));
            }
            cell_name => {
                // A cell instance: `CELL inst (.PIN(net), ...)`.
                let Some(open) = rest.find('(') else {
                    return Err(ParseVerilogError::new(format!(
                        "instance '{stmt}' has no connection list"
                    )));
                };
                let Some(close) = rest.rfind(')') else {
                    return Err(ParseVerilogError::new(format!(
                        "instance '{stmt}' has an unterminated connection list"
                    )));
                };
                if close < open {
                    return Err(ParseVerilogError::new(format!(
                        "instance '{stmt}' has a malformed connection list"
                    )));
                }
                let mut pins = Vec::new();
                for conn in rest[open + 1..close].split(',') {
                    let conn = conn.trim();
                    if conn.is_empty() {
                        continue;
                    }
                    let parsed = conn
                        .strip_prefix('.')
                        .and_then(|c| c.split_once('('))
                        .and_then(|(pin, net)| {
                            net.strip_suffix(')').map(|n| (pin.trim(), n.trim()))
                        });
                    let Some((pin, net)) = parsed else {
                        return Err(ParseVerilogError::new(format!(
                            "malformed pin connection '{conn}'"
                        )));
                    };
                    pins.push((pin.to_string(), net.to_string()));
                }
                instances.push((cell_name.to_string(), pins));
            }
        }
    }

    let Some(module_name) = module_name else {
        return Err(ParseVerilogError::new("no module declaration found"));
    };
    let mut netlist = CellNetlist::new(module_name, inputs.len());
    let mut nets: HashMap<String, NetRef> = HashMap::new();
    for (i, name) in inputs.iter().enumerate() {
        if nets.insert(name.clone(), NetRef::Input(i)).is_some() {
            return Err(ParseVerilogError::new(format!(
                "input '{name}' declared twice"
            )));
        }
    }
    for (cell_name, pins) in instances {
        let Some(cell_id) = library.find_cell(&cell_name) else {
            return Err(ParseVerilogError::new(format!(
                "cell '{cell_name}' is not in library '{}'",
                library.name()
            )));
        };
        let num_inputs = library.cell(cell_id).num_inputs();
        let mut fanins: Vec<Option<NetRef>> = vec![None; num_inputs];
        let mut out_net: Option<String> = None;
        for (pin, net) in pins {
            if pin == "Y" {
                out_net = Some(net);
                continue;
            }
            let slot = pin
                .bytes()
                .next()
                .filter(|_| pin.len() == 1)
                .map(|b| b.wrapping_sub(b'A') as usize);
            let Some(slot) = slot.filter(|&s| s < num_inputs) else {
                return Err(ParseVerilogError::new(format!(
                    "cell '{cell_name}' has no input pin '{pin}'"
                )));
            };
            if fanins[slot].is_some() {
                return Err(ParseVerilogError::new(format!(
                    "pin '{pin}' of '{cell_name}' connected twice"
                )));
            }
            fanins[slot] = Some(resolve_net(&nets, &net)?);
        }
        let fanins: Vec<NetRef> = fanins
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                ParseVerilogError::new(format!("instance of '{cell_name}' leaves a pin open"))
            })?;
        let Some(out_net) = out_net else {
            return Err(ParseVerilogError::new(format!(
                "instance of '{cell_name}' has no .Y output connection"
            )));
        };
        let gate = netlist.push_gate(cell_id, fanins);
        if nets.insert(out_net.clone(), gate).is_some() {
            return Err(ParseVerilogError::new(format!(
                "net '{out_net}' driven twice"
            )));
        }
    }
    for (lhs, rhs) in &output_assigns {
        if !declared_outputs.iter().any(|o| o == lhs) {
            return Err(ParseVerilogError::new(format!(
                "assign target '{lhs}' is not a declared output"
            )));
        }
        netlist.push_output(resolve_net(&nets, rhs)?);
    }
    if netlist.output_count() != declared_outputs.len() {
        return Err(ParseVerilogError::new(format!(
            "{} outputs declared but {} assigned",
            declared_outputs.len(),
            netlist.output_count()
        )));
    }
    Ok(netlist)
}

fn wire_name(r: &NetRef) -> String {
    match r {
        NetRef::Const(false) => "1'b0".into(),
        NetRef::Const(true) => "1'b1".into(),
        NetRef::Input(i) => format!("pi{i}"),
        NetRef::Gate(i) => format!("n{i}"),
    }
}

/// Serialises a mapped standard-cell netlist as structural Verilog.
///
/// Each mapped gate becomes one cell instance with positional pin connections
/// `(.A(..), .B(..), …, .Y(out))`; the module interface uses `pi<i>` / `po<i>`
/// port names matching the BLIF writer.
pub fn write_verilog(netlist: &CellNetlist, library: &Library) -> String {
    let mut out = String::new();
    let module = if netlist.name().is_empty() { "top" } else { netlist.name() };
    let inputs: Vec<String> = (0..netlist.input_count()).map(|i| format!("pi{i}")).collect();
    let outputs: Vec<String> = (0..netlist.output_count()).map(|i| format!("po{i}")).collect();
    let mut ports = inputs.clone();
    ports.extend(outputs.iter().cloned());
    let _ = writeln!(out, "module {module} ({});", ports.join(", "));
    if !inputs.is_empty() {
        let _ = writeln!(out, "  input {};", inputs.join(", "));
    }
    if !outputs.is_empty() {
        let _ = writeln!(out, "  output {};", outputs.join(", "));
    }
    if netlist.gate_count() > 0 {
        let wires: Vec<String> = (0..netlist.gate_count()).map(|i| format!("n{i}")).collect();
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }
    let pin_names = ["A", "B", "C", "D", "E", "F", "G", "H"];
    for (i, gate) in netlist.gates().iter().enumerate() {
        let cell = library.cell(gate.cell);
        let mut conns: Vec<String> = gate
            .fanins
            .iter()
            .enumerate()
            .map(|(p, f)| format!(".{}({})", pin_names[p], wire_name(f)))
            .collect();
        conns.push(format!(".Y(n{i})"));
        let _ = writeln!(out, "  {} g{} ({});", cell.name(), i, conns.join(", "));
    }
    for (i, o) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(out, "  assign po{} = {};", i, wire_name(o));
    }
    let _ = writeln!(out, "endmodule");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_choice::ChoiceNetwork;
    use mch_logic::{Network, NetworkKind};
    use mch_mapper::{map_asic, AsicMapParams, MappingObjective};
    use mch_techlib::asap7_lite;

    #[test]
    fn verilog_lists_cells_and_ports() {
        let mut n = Network::with_name(NetworkKind::Aig, "vtest");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let f = n.and2(a, b);
        let g = n.or(f, c);
        n.add_output(g);
        n.add_output(!f);
        let lib = asap7_lite();
        let mapped = map_asic(
            &ChoiceNetwork::from_network(&n),
            &lib,
            &AsicMapParams::new(MappingObjective::Area),
        );
        let text = write_verilog(&mapped, &lib);
        assert!(text.starts_with("module vtest"));
        assert!(text.contains("input pi0, pi1, pi2;"));
        assert!(text.contains("output po0, po1;"));
        assert!(text.contains("assign po0"));
        assert!(text.trim_end().ends_with("endmodule"));
        // Every mapped gate appears as exactly one instance (named g<i>).
        let instances = text.lines().filter(|l| l.contains(".Y(")).count();
        assert_eq!(instances, mapped.gate_count());
    }

    #[test]
    fn verilog_round_trips() {
        use mch_logic::cec;
        let mut n = Network::with_name(NetworkKind::Aig, "vround");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let f = n.and2(a, !b);
        let g = n.xor(f, c);
        n.add_output(g);
        n.add_output(!f);
        let lib = asap7_lite();
        let mapped = map_asic(
            &ChoiceNetwork::from_network(&n),
            &lib,
            &AsicMapParams::new(MappingObjective::Balanced),
        );
        let back = read_verilog(&write_verilog(&mapped, &lib), &lib).unwrap();
        assert_eq!(back.input_count(), mapped.input_count());
        assert_eq!(back.gate_count(), mapped.gate_count());
        assert_eq!(back.output_count(), mapped.output_count());
        assert!(cec(&n, &back.to_network(&lib)).holds());
    }

    #[test]
    fn reader_rejects_malformed_text() {
        let lib = asap7_lite();
        assert!(read_verilog("", &lib).is_err());
        assert!(read_verilog("module m (); NOPE g0 (.A(pi0), .Y(n0)); endmodule", &lib).is_err());
        assert!(read_verilog(
            "module m (po0);\n output po0;\n assign po0 = nowhere;\nendmodule",
            &lib
        )
        .is_err());
        assert!(read_verilog(
            "module m (pi0, po0);\n input pi0;\n output po0;\nendmodule",
            &lib
        )
        .is_err());
    }

    #[test]
    fn constant_outputs_use_literals() {
        let lib = asap7_lite();
        let mut nl = mch_mapper::CellNetlist::new("c", 1);
        nl.push_output(NetRef::Const(true));
        let text = write_verilog(&nl, &lib);
        assert!(text.contains("assign po0 = 1'b1;"));
    }
}
