//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! The reader accepts the combinational single-output-cover subset that
//! [`write_blif`] and [`write_lut_blif`] emit (plus `-` don't-cares and
//! `#` comments) and is hardened against untrusted input: every malformed
//! shape returns [`ParseBlifError`], never a panic.

// Text keys from outside: signal names come from untrusted files, so the
// name table keeps std's keyed SipHash.
#![allow(clippy::disallowed_types)]

use mch_logic::{GateKind, Network, NetworkKind, NodeId, Signal};
use mch_mapper::{LutNetlist, NetRef};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;

/// Error produced while parsing a BLIF file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseBlifError {
    message: String,
    line: usize,
}

impl ParseBlifError {
    fn new(message: impl Into<String>, line: usize) -> Self {
        ParseBlifError {
            message: message.into(),
            line,
        }
    }

    /// 1-based line number at which parsing failed.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseBlifError {}

/// One `.names` block under construction: the cover signature plus its
/// accumulated on-set cubes.
struct Cover {
    inputs: Vec<String>,
    output: String,
    cubes: Vec<Vec<Option<bool>>>,
    line: usize,
}

/// Parses the combinational subset of BLIF into an AIG [`Network`].
///
/// Supported: `.model`, `.inputs`, `.outputs`, single-output `.names` covers
/// with on-set rows (`1`/`0`/`-` columns), `#` comments, `\` line
/// continuations and `.end`. Covers must be in topological order (defined
/// before use), which every tool-written BLIF satisfies.
///
/// # Errors
///
/// Returns [`ParseBlifError`] for sequential constructs (`.latch`,
/// `.gate`, `.subckt`), off-set covers, redefined or undefined signals,
/// cube-width mismatches and truncated files.
pub fn read_blif(text: &str) -> Result<Network, ParseBlifError> {
    // Logical lines: strip comments, honour trailing-backslash continuation.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let no_comment = match raw.find('#') {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let (continued, body) = match no_comment.trim_end().strip_suffix('\\') {
            Some(body) => (true, body),
            None => (false, no_comment),
        };
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(body);
                if continued {
                    pending = Some((start, acc));
                } else {
                    logical.push((start, acc));
                }
            }
            None => {
                if continued {
                    pending = Some((idx + 1, body.to_string()));
                } else if !body.trim().is_empty() {
                    logical.push((idx + 1, body.to_string()));
                }
            }
        }
    }
    if let Some((start, acc)) = pending {
        logical.push((start, acc));
    }

    let mut model = String::new();
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut covers: Vec<Cover> = Vec::new();
    let mut current: Option<Cover> = None;

    for (line, body) in logical {
        let tokens: Vec<&str> = body.split_whitespace().collect();
        let Some(&head) = tokens.first() else {
            continue;
        };
        if head.starts_with('.') {
            if let Some(cover) = current.take() {
                covers.push(cover);
            }
            match head {
                ".model" => model = tokens.get(1).unwrap_or(&"").to_string(),
                ".inputs" => input_names.extend(tokens[1..].iter().map(|s| s.to_string())),
                ".outputs" => output_names.extend(tokens[1..].iter().map(|s| s.to_string())),
                ".names" => {
                    let Some((output, inputs)) = tokens[1..].split_last() else {
                        return Err(ParseBlifError::new(".names needs an output signal", line));
                    };
                    current = Some(Cover {
                        inputs: inputs.iter().map(|s| s.to_string()).collect(),
                        output: output.to_string(),
                        cubes: Vec::new(),
                        line,
                    });
                }
                ".end" => break,
                other => {
                    return Err(ParseBlifError::new(
                        format!("unsupported construct '{other}' (combinational covers only)"),
                        line,
                    ));
                }
            }
            continue;
        }
        // A cube row of the open cover.
        let Some(cover) = current.as_mut() else {
            return Err(ParseBlifError::new(
                format!("cover row '{body}' outside a .names block"),
                line,
            ));
        };
        let (cube_text, value) = if cover.inputs.is_empty() {
            // Constant cover: the single column is the output value.
            ("", *tokens.first().unwrap_or(&""))
        } else {
            if tokens.len() != 2 {
                return Err(ParseBlifError::new(
                    "cover row must be '<cube> <value>'",
                    line,
                ));
            }
            (tokens[0], tokens[1])
        };
        if value != "1" {
            return Err(ParseBlifError::new(
                format!("only on-set covers are supported, got output value '{value}'"),
                line,
            ));
        }
        if cube_text.chars().count() != cover.inputs.len() {
            return Err(ParseBlifError::new(
                format!(
                    "cube '{cube_text}' has {} columns for {} inputs",
                    cube_text.chars().count(),
                    cover.inputs.len()
                ),
                line,
            ));
        }
        let mut cube = Vec::with_capacity(cover.inputs.len());
        for c in cube_text.chars() {
            cube.push(match c {
                '1' => Some(true),
                '0' => Some(false),
                '-' => None,
                other => {
                    return Err(ParseBlifError::new(
                        format!("invalid cube column '{other}'"),
                        line,
                    ));
                }
            });
        }
        cover.cubes.push(cube);
    }
    if let Some(cover) = current.take() {
        covers.push(cover);
    }

    let mut net = Network::with_name(NetworkKind::Aig, model);
    let mut signals: HashMap<String, Signal> = HashMap::new();
    for name in &input_names {
        let s = net.add_input();
        if signals.insert(name.clone(), s).is_some() {
            return Err(ParseBlifError::new(format!("input '{name}' declared twice"), 1));
        }
    }
    for cover in covers {
        let mut terms: Vec<Signal> = Vec::with_capacity(cover.inputs.len());
        for name in &cover.inputs {
            let Some(&s) = signals.get(name) else {
                return Err(ParseBlifError::new(
                    format!("signal '{name}' used before definition"),
                    cover.line,
                ));
            };
            terms.push(s);
        }
        // Sum of products: AND the cube literals, OR the cubes. An empty
        // cover is constant 0, an empty cube is constant 1.
        let mut sum = Signal::CONST0;
        for cube in &cover.cubes {
            let mut product = !Signal::CONST0;
            for (term, phase) in terms.iter().zip(cube) {
                if let Some(phase) = phase {
                    product = net.and2(product, term.xor_complement(!phase));
                }
            }
            sum = net.or(sum, product);
        }
        if signals.insert(cover.output.clone(), sum).is_some() {
            return Err(ParseBlifError::new(
                format!("signal '{}' defined twice", cover.output),
                cover.line,
            ));
        }
    }
    for name in &output_names {
        let Some(&s) = signals.get(name) else {
            return Err(ParseBlifError::new(format!("output '{name}' is undefined"), 1));
        };
        net.add_output(s);
    }
    Ok(net)
}

fn node_name(network: &Network, node: NodeId) -> String {
    if node.is_const() {
        "const0".to_string()
    } else if network.is_input(node) {
        // Inputs are registered at creation; fall back to the node name so a
        // hypothetically unregistered input degrades to a dangling wire
        // instead of a panic.
        match network.inputs().iter().position(|&n| n == node) {
            Some(idx) => format!("pi{idx}"),
            None => format!("n{}", node.index()),
        }
    } else {
        format!("n{}", node.index())
    }
}

/// Serialises a logic network as BLIF.
///
/// Every gate becomes a `.names` cover (ANDs and XORs as two-input covers,
/// majorities as three-input covers); complemented edges are expressed in the
/// cover rows, so the output loads into any BLIF-reading tool unchanged.
pub fn write_blif(network: &Network) -> String {
    let mut out = String::new();
    let model = if network.name().is_empty() { "top" } else { network.name() };
    let _ = writeln!(out, ".model {model}");
    let inputs: Vec<String> = (0..network.input_count()).map(|i| format!("pi{i}")).collect();
    let _ = writeln!(out, ".inputs {}", inputs.join(" "));
    let outputs: Vec<String> = (0..network.output_count()).map(|i| format!("po{i}")).collect();
    let _ = writeln!(out, ".outputs {}", outputs.join(" "));
    let _ = writeln!(out, ".names const0");

    for id in network.gate_ids() {
        let node = network.node(id);
        let fanins: Vec<String> = node
            .fanins()
            .iter()
            .map(|s| node_name(network, s.node()))
            .collect();
        let name = node_name(network, id);
        let _ = writeln!(out, ".names {} {}", fanins.join(" "), name);
        let phase = |s: &Signal, bit: bool| -> char {
            let v = bit ^ s.is_complement();
            if v {
                '1'
            } else {
                '0'
            }
        };
        match node.kind() {
            GateKind::And2 => {
                let f = node.fanins();
                let _ = writeln!(out, "{}{} 1", phase(&f[0], true), phase(&f[1], true));
            }
            GateKind::Xor2 => {
                let f = node.fanins();
                let _ = writeln!(out, "{}{} 1", phase(&f[0], true), phase(&f[1], false));
                let _ = writeln!(out, "{}{} 1", phase(&f[0], false), phase(&f[1], true));
            }
            GateKind::Maj3 => {
                let f = node.fanins();
                // Majority = at least two true: enumerate the four on-set cubes.
                let _ = writeln!(out, "{}{}- 1", phase(&f[0], true), phase(&f[1], true));
                let _ = writeln!(out, "{}-{} 1", phase(&f[0], true), phase(&f[2], true));
                let _ = writeln!(out, "-{}{} 1", phase(&f[1], true), phase(&f[2], true));
            }
            _ => unreachable!("gate_ids yields only gates"),
        }
    }
    for (i, o) in network.outputs().iter().enumerate() {
        let driver = node_name(network, o.node());
        let _ = writeln!(out, ".names {} po{}", driver, i);
        let _ = writeln!(out, "{} 1", if o.is_complement() { '0' } else { '1' });
    }
    let _ = writeln!(out, ".end");
    out
}

fn net_ref_name(r: &NetRef) -> String {
    match r {
        NetRef::Const(false) => "const0".into(),
        NetRef::Const(true) => "const1".into(),
        NetRef::Input(i) => format!("pi{i}"),
        NetRef::Gate(i) => format!("lut{i}"),
    }
}

/// Serialises a mapped K-LUT netlist as BLIF (`.names` covers carry the
/// complete LUT truth tables).
pub fn write_lut_blif(netlist: &LutNetlist) -> String {
    let mut out = String::new();
    let model = if netlist.name().is_empty() { "top" } else { netlist.name() };
    let _ = writeln!(out, ".model {model}");
    let inputs: Vec<String> = (0..netlist.input_count()).map(|i| format!("pi{i}")).collect();
    let _ = writeln!(out, ".inputs {}", inputs.join(" "));
    let outputs: Vec<String> = (0..netlist.outputs().len()).map(|i| format!("po{i}")).collect();
    let _ = writeln!(out, ".outputs {}", outputs.join(" "));
    let _ = writeln!(out, ".names const0");
    let _ = writeln!(out, ".names const1");
    let _ = writeln!(out, "1");

    for (i, lut) in netlist.luts().iter().enumerate() {
        let fanins: Vec<String> = lut.fanins.iter().map(net_ref_name).collect();
        let _ = writeln!(out, ".names {} lut{}", fanins.join(" "), i);
        let k = lut.function.num_vars();
        for minterm in 0..lut.function.num_bits() {
            if lut.function.bit(minterm) {
                let cube: String = (0..k)
                    .map(|v| if minterm & (1 << v) != 0 { '1' } else { '0' })
                    .collect();
                let _ = writeln!(out, "{cube} 1");
            }
        }
    }
    for (i, o) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(out, ".names {} po{}", net_ref_name(o), i);
        let _ = writeln!(out, "1 1");
    }
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_choice::ChoiceNetwork;
    use mch_logic::NetworkKind;
    use mch_mapper::{map_lut, LutMapParams, MappingObjective};
    use mch_techlib::LutLibrary;

    fn sample() -> Network {
        let mut n = Network::with_name(NetworkKind::Xmg, "blif_sample");
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let m = n.maj3(a, b, !c);
        let x = n.xor2(m, a);
        n.add_output(x);
        n.add_output(!m);
        n
    }

    #[test]
    fn network_blif_has_model_ios_and_gates() {
        let text = write_blif(&sample());
        assert!(text.starts_with(".model blif_sample"));
        assert!(text.contains(".inputs pi0 pi1 pi2"));
        assert!(text.contains(".outputs po0 po1"));
        assert!(text.contains(".names"));
        assert!(text.trim_end().ends_with(".end"));
        // One cover line set per gate plus output buffers.
        assert!(text.matches(".names").count() >= 4);
    }

    #[test]
    fn network_blif_round_trips() {
        use mch_logic::cec;
        let n = sample();
        let back = read_blif(&write_blif(&n)).unwrap();
        assert_eq!(back.input_count(), n.input_count());
        assert_eq!(back.output_count(), n.output_count());
        assert_eq!(back.name(), n.name());
        assert!(cec(&n, &back).holds());
    }

    #[test]
    fn lut_blif_round_trips() {
        use mch_logic::cec;
        let net = sample();
        let mapped = map_lut(
            &ChoiceNetwork::from_network(&net),
            &LutLibrary::k6(),
            &LutMapParams::new(MappingObjective::Area),
        );
        let back = read_blif(&write_lut_blif(&mapped)).unwrap();
        assert!(cec(&net, &back).holds());
    }

    #[test]
    fn reader_rejects_malformed_text() {
        assert!(read_blif(".model x\n.latch a b\n").is_err());
        assert!(read_blif(".model x\n.inputs a\n.names a a\n1 1\n.names a y\n1 1\n").is_err());
        assert!(read_blif(".model x\n.inputs a\n.names b y\n1 1\n").is_err());
        assert!(read_blif(".model x\n.inputs a\n.names a y\n11 1\n").is_err());
        assert!(read_blif(".model x\n.inputs a\n.names a y\n0 0\n").is_err());
        assert!(read_blif(".model x\n.outputs y\n").is_err());
        assert!(read_blif("stray row\n").is_err());
    }

    #[test]
    fn lut_blif_lists_every_lut() {
        let net = sample();
        let mapped = map_lut(
            &ChoiceNetwork::from_network(&net),
            &LutLibrary::k6(),
            &LutMapParams::new(MappingObjective::Area),
        );
        let text = write_lut_blif(&mapped);
        assert!(text.contains(".model blif_sample"));
        assert!(
            text.matches("lut").count() > 0,
            "LUT instances must be named"
        );
        assert!(text.trim_end().ends_with(".end"));
    }
}
