//! SPICE-flavoured text-deck parser.
//!
//! The dialect is the least-common-denominator of the decks used by the
//! SET-aware SPICE extensions cited in the paper: a title line, one element
//! per line, `*` comments, continuation lines starting with `+`, analysis
//! directives, and an optional `.end`. Device cards:
//!
//! ```text
//! * single SET biased by a gate
//! Rname  n+ n-  value            resistor
//! Cname  n+ n-  value            capacitor
//! Jname  n+ n-  C=value R=value  tunnel junction
//! Vname  n+ n-  [DC] value       DC voltage source
//! Vname  n+ n-  [DC v] PULSE(low high delay width period)
//! Vname  n+ n-  [DC v] SIN(offset amplitude freq [phase])
//! Vname  n+ n-  [DC v] PWL(t1 v1 t2 v2 ...)
//! Vname  n+ n-  [DC v] STEP(before after at)
//! Iname  n+ n-  value            DC current source
//! Dname  n+ n-  [IS=v] [N=v]     diode
//! Mname  d g s  [NMOS|PMOS] [VTH=v] [KP=v] [LAMBDA=v]
//! Xname  d g s  SET [CG=v] [CS=v] [CD=v] [RS=v] [RD=v] [Q0=v]
//! .end
//! ```
//!
//! Analysis directives (`.dc`, `.tran`, `.options`, `.print`/`.probe`) are
//! parsed into the typed [`Analysis`] AST of [`crate::directive`];
//! directives the parser does not understand become [`ParseDiagnostic`]s on
//! the returned [`Deck`] instead of being silently dropped, and malformed
//! known directives are hard errors.
//!
//! Values accept SPICE magnitude suffixes (`1a`, `100k`, `2.5meg`, …) via
//! [`se_units::parse_value`].

use crate::directive::{
    Analysis, Deck, EnginePreference, ParseDiagnostic, SolverPreference, SweepSpec,
};
use crate::element::{Element, ElementKind, MosfetParams, MosfetType, SetParams};
use crate::error::NetlistError;
use crate::netlist::Netlist;
use se_engine::grid::MAX_POINTS;
use se_engine::Waveform;
use se_units::parse_value;
use std::collections::HashMap;

/// Parses a SPICE-flavoured deck into a [`Netlist`], discarding analysis
/// directives.
///
/// This is the circuit-only view of [`parse_full_deck`]: directives are
/// still *validated* (a malformed `.dc` card is an error), but the parsed
/// analyses, options, probes, waveforms and diagnostics are dropped. Use
/// [`parse_full_deck`] when the analysis commands matter — e.g. to compile
/// and run the deck through `se-sim`.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] describing the first malformed card
/// (invalid element values included), or
/// [`NetlistError::DuplicateElement`] for a repeated element name.
pub fn parse_deck(deck: &str) -> Result<Netlist, NetlistError> {
    parse_full_deck(deck).map(|deck| deck.netlist)
}

/// Parses a SPICE-flavoured deck into a full [`Deck`]: the netlist plus the
/// typed analysis directives, options, probes and source waveforms.
///
/// The first non-empty line is taken as the title. Lines starting with `*`
/// are comments; lines starting with `+` continue the previous card;
/// `.end` terminates parsing. Recognised directives become typed values on
/// the deck; unknown directives and unsupported probe kinds are recorded as
/// [`ParseDiagnostic`]s (with line numbers) instead of being dropped.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] describing the first malformed card —
/// including malformed *known* directives such as a `.dc` with the wrong
/// argument count, a grid of more than 2 000 000 points, or an invalid
/// element value — or [`NetlistError::DuplicateElement`] for a repeated
/// element name.
pub fn parse_full_deck(text: &str) -> Result<Deck, NetlistError> {
    // Join continuation lines first, remembering original line numbers.
    let mut cards: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw);
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.trim_start().strip_prefix('+') {
            match cards.last_mut() {
                Some((_, prev)) => {
                    prev.push(' ');
                    prev.push_str(rest);
                }
                None => {
                    return Err(NetlistError::Parse {
                        line: line_no,
                        message: "continuation line with nothing to continue".into(),
                    })
                }
            }
        } else {
            cards.push((line_no, line.trim().to_string()));
        }
    }

    if cards.is_empty() {
        return Err(NetlistError::Parse {
            line: 0,
            message: "deck is empty".into(),
        });
    }

    let (_, title) = cards.remove(0);
    let mut deck = Deck {
        netlist: Netlist::new(title),
        ..Deck::default()
    };

    for (line_no, card) in cards {
        let lower = card.to_ascii_lowercase();
        if lower.starts_with(".end") {
            break;
        }
        if lower.starts_with('.') {
            parse_directive(&card, line_no, &mut deck)?;
            continue;
        }
        // Element constructors refuse bad values without knowing the
        // card's line; name it here.
        let element = parse_card(&card, line_no, &mut deck).map_err(|e| match e {
            NetlistError::Parse { .. } => e,
            other => NetlistError::Parse {
                line: line_no,
                message: other.to_string(),
            },
        })?;
        deck.netlist.add(element)?;
    }
    Ok(deck)
}

fn strip_comment(line: &str) -> &str {
    // Full-line comments start with '*'; inline comments with ';'.
    let trimmed = line.trim_start();
    if trimmed.starts_with('*') {
        return "";
    }
    match line.find(';') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Parses one `.`-directive card into the deck.
fn parse_directive(card: &str, line: usize, deck: &mut Deck) -> Result<(), NetlistError> {
    let err = |message: String| NetlistError::Parse { line, message };
    let tokens: Vec<&str> = card.split_whitespace().collect();
    let directive = tokens[0].to_ascii_lowercase();
    match directive.as_str() {
        ".dc" => {
            let args = &tokens[1..];
            match args.len() {
                4 => {
                    let sweep = parse_sweep_spec(&args[0..4], line, &mut deck.diagnostics)?;
                    deck.analyses.push(Analysis::DcSweep { sweep });
                }
                8 => {
                    // SPICE convention: the first source is the fast (inner)
                    // axis, the second the slow (outer) axis.
                    let inner = parse_sweep_spec(&args[0..4], line, &mut deck.diagnostics)?;
                    let outer = parse_sweep_spec(&args[4..8], line, &mut deck.diagnostics)?;
                    deck.analyses.push(Analysis::DcMap { outer, inner });
                }
                n => {
                    return Err(err(format!(
                        ".dc needs `SRC start stop step` (4 arguments) or two such groups \
                         (8 arguments), got {n}"
                    )))
                }
            }
        }
        ".tran" => {
            if tokens.len() != 3 {
                return Err(err(format!(".tran needs `tstep tstop`, got `{card}`")));
            }
            let step = parse_value(tokens[1]).map_err(|e| err(e.to_string()))?;
            let stop = parse_value(tokens[2]).map_err(|e| err(e.to_string()))?;
            if !(step > 0.0) || !step.is_finite() {
                return Err(err(format!(
                    ".tran step must be positive and finite, got {step}"
                )));
            }
            if !(stop >= step) || !stop.is_finite() {
                return Err(err(format!(
                    ".tran stop must be at least one step, got {stop} with step {step}"
                )));
            }
            let count = stop / step;
            if count > MAX_POINTS {
                return Err(err(format!(
                    ".tran grid would have {} samples (more than {MAX_POINTS})",
                    count as u64
                )));
            }
            deck.analyses.push(Analysis::Transient { step, stop });
        }
        ".options" | ".option" => {
            parse_options(&tokens[1..], line, deck)?;
        }
        ".print" | ".probe" => {
            parse_print(&tokens[1..], line, deck);
        }
        other => {
            deck.diagnostics.push(ParseDiagnostic {
                line,
                message: format!("unknown directive `{other}` ignored"),
            });
        }
    }
    Ok(())
}

/// Parses one `SRC start stop step` group of a `.dc` card.
fn parse_sweep_spec(
    args: &[&str],
    line: usize,
    diagnostics: &mut Vec<ParseDiagnostic>,
) -> Result<SweepSpec, NetlistError> {
    let err = |message: String| NetlistError::Parse { line, message };
    let source = args[0].to_string();
    if source.starts_with(|c: char| c.is_ascii_digit()) {
        return Err(err(format!(
            ".dc expects a source name, got the number `{source}` (wrong argument count?)"
        )));
    }
    let start = parse_value(args[1]).map_err(|e| err(e.to_string()))?;
    let stop = parse_value(args[2]).map_err(|e| err(e.to_string()))?;
    let step = parse_value(args[3]).map_err(|e| err(e.to_string()))?;
    if !(start.is_finite() && stop.is_finite() && step.is_finite()) {
        return Err(err(format!(
            ".dc bounds must be finite, got {start} {stop} {step}"
        )));
    }
    let points = if start == stop {
        1
    } else {
        if step == 0.0 {
            return Err(err(format!(
                ".dc step must be non-zero for a {start} → {stop} sweep"
            )));
        }
        if (stop - start).signum() != step.signum() {
            return Err(err(format!(
                ".dc step {step} points away from the sweep direction {start} → {stop}"
            )));
        }
        let count = (stop - start) / step;
        if count > MAX_POINTS {
            return Err(err(format!(
                ".dc grid would have {} points (more than {MAX_POINTS})",
                count as u64
            )));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let steps = count.round() as usize;
        // The grid always covers [start, stop] with evenly spaced points;
        // a step that does not divide the span is adjusted, and silently
        // substituting bias points would violate the no-silent-drop
        // contract, so say so.
        let rounding = (count - steps as f64).abs();
        if rounding > 1e-9 * count.abs().max(1.0) {
            let actual = (stop - start) / steps as f64;
            diagnostics.push(ParseDiagnostic {
                line,
                message: format!(
                    ".dc step {step} does not evenly divide {start} → {stop}; using {} points \
                     evenly spaced over the full range (step {actual:.6e})",
                    steps + 1
                ),
            });
        }
        steps + 1
    };
    Ok(SweepSpec {
        source,
        start,
        stop,
        points,
    })
}

/// Parses the `KEY=VALUE` pairs of an `.options` card.
fn parse_options(args: &[&str], line: usize, deck: &mut Deck) -> Result<(), NetlistError> {
    let err = |message: String| NetlistError::Parse { line, message };
    for token in args {
        let Some((key, value)) = token.split_once('=') else {
            deck.diagnostics.push(ParseDiagnostic {
                line,
                message: format!(".options entry `{token}` is not KEY=VALUE, ignored"),
            });
            continue;
        };
        match key.to_ascii_lowercase().as_str() {
            "temp" | "temperature" => {
                let temperature = parse_value(value).map_err(|e| err(e.to_string()))?;
                if temperature < 0.0 || !temperature.is_finite() {
                    return Err(err(format!(
                        "temperature must be non-negative kelvin, got {temperature}"
                    )));
                }
                deck.options.temperature = temperature;
            }
            "seed" => {
                deck.options.seed = value
                    .parse::<u64>()
                    .map_err(|_| err(format!("seed must be an unsigned integer, got `{value}`")))?;
            }
            "engine" => {
                deck.options.engine = EnginePreference::parse(value).map_err(err)?;
            }
            "window" => {
                let window = value
                    .parse::<i64>()
                    .map_err(|_| err(format!("window must be an integer, got `{value}`")))?;
                if window < 1 {
                    return Err(err(format!("window must be at least 1, got {window}")));
                }
                deck.options.master_window = Some(window);
            }
            "maxstates" => {
                let max_states = value.parse::<usize>().map_err(|_| {
                    err(format!(
                        "maxstates must be an unsigned integer, got `{value}`"
                    ))
                })?;
                if max_states == 0 {
                    return Err(err("maxstates must be at least 1".into()));
                }
                deck.options.master_max_states = Some(max_states);
            }
            "solver" => {
                deck.options.solver = Some(SolverPreference::parse(value).map_err(err)?);
            }
            "events" => {
                let events = value.parse::<usize>().map_err(|_| {
                    err(format!("events must be an unsigned integer, got `{value}`"))
                })?;
                if events == 0 {
                    return Err(err("events must be at least 1".into()));
                }
                deck.options.kmc_events = Some(events);
            }
            "repeats" => {
                let repeats = value.parse::<usize>().map_err(|_| {
                    err(format!(
                        "repeats must be an unsigned integer, got `{value}`"
                    ))
                })?;
                if repeats == 0 {
                    return Err(err("repeats must be at least 1".into()));
                }
                deck.options.repeats = Some(repeats);
            }
            other => {
                deck.diagnostics.push(ParseDiagnostic {
                    line,
                    message: format!(".options key `{other}` is not recognised, ignored"),
                });
            }
        }
    }
    Ok(())
}

/// Parses the signal list of a `.print` / `.probe` card.
fn parse_print(args: &[&str], line: usize, deck: &mut Deck) {
    let mut signals = args;
    // An optional leading analysis-mode token (".print dc i(J1)").
    if let Some(first) = signals.first() {
        if first.eq_ignore_ascii_case("dc") || first.eq_ignore_ascii_case("tran") {
            signals = &signals[1..];
        }
    }
    if signals.is_empty() {
        deck.diagnostics.push(ParseDiagnostic {
            line,
            message: ".print without signals ignored".into(),
        });
        return;
    }
    for signal in signals {
        let lower = signal.to_ascii_lowercase();
        if let Some(name) = lower.strip_prefix("i(").and_then(|s| s.strip_suffix(')')) {
            // Preserve the user's spelling of the name inside i(...).
            let inner = &signal[2..signal.len() - 1];
            if name.is_empty() {
                deck.diagnostics.push(ParseDiagnostic {
                    line,
                    message: "empty probe `i()` ignored".into(),
                });
            } else {
                deck.probes.push(inner.to_string());
            }
        } else if lower.starts_with("v(") {
            deck.diagnostics.push(ParseDiagnostic {
                line,
                message: format!(
                    "voltage probe `{signal}` is not supported (only current probes `i(NAME)`), \
                     ignored"
                ),
            });
        } else {
            // A bare name is taken as a current observable.
            deck.probes.push((*signal).to_string());
        }
    }
}

/// Parses the value/waveform spec of a voltage-source card (everything
/// after the two node tokens): `[DC] value`, or an optional `DC value`
/// followed by a `PULSE(...)`, `SIN(...)`, `PWL(...)` or `STEP(...)` spec.
///
/// Returns the DC operating value (defaulting to the waveform evaluated at
/// `t = 0`) and the waveform, if any.
fn parse_source_spec(
    spec: &str,
    name: &str,
    line: usize,
    diagnostics: &mut Vec<ParseDiagnostic>,
) -> Result<(f64, Option<Waveform>), NetlistError> {
    let err = |message: String| NetlistError::Parse { line, message };
    let (prefix, function) = match spec.find('(') {
        None => (spec.trim(), None),
        Some(open) => {
            let close = spec
                .rfind(')')
                .ok_or_else(|| err(format!("`{name}`: unterminated waveform spec `{spec}`")))?;
            if close < open {
                return Err(err(format!("`{name}`: malformed waveform spec `{spec}`")));
            }
            if !spec[close + 1..].trim().is_empty() {
                return Err(err(format!(
                    "`{name}`: unexpected text after waveform spec: `{}`",
                    spec[close + 1..].trim()
                )));
            }
            let head = spec[..open].trim_end();
            let func_start = head.rfind(char::is_whitespace).map_or(0, |pos| pos + 1);
            let func_name = &head[func_start..];
            if func_name.is_empty() {
                return Err(err(format!(
                    "`{name}`: waveform spec needs a function name before `(`"
                )));
            }
            let args: Vec<f64> = spec[open + 1..close]
                .replace(',', " ")
                .split_whitespace()
                .map(|token| parse_value(token).map_err(|e| err(e.to_string())))
                .collect::<Result<_, _>>()?;
            let waveform = build_waveform(func_name, &args, name, line, diagnostics)?;
            (head[..func_start].trim(), Some(waveform))
        }
    };

    // The prefix is empty, `value`, `DC`, or `DC value`.
    let prefix_tokens: Vec<&str> = prefix.split_whitespace().collect();
    let dc_value = match prefix_tokens.as_slice() {
        [] => None,
        [value] if !value.eq_ignore_ascii_case("dc") => {
            Some(parse_value(value).map_err(|e| err(e.to_string()))?)
        }
        [dc, value] if dc.eq_ignore_ascii_case("dc") => {
            Some(parse_value(value).map_err(|e| err(e.to_string()))?)
        }
        _ => {
            return Err(err(format!(
                "`{name}`: expected `[DC] value` before the waveform, got `{prefix}`"
            )))
        }
    };

    match (dc_value, function) {
        (Some(value), waveform) => Ok((value, waveform)),
        (None, Some(waveform)) => Ok((waveform.value_at(0.0), Some(waveform))),
        (None, None) => Err(err(format!("`{name}` needs a DC value or a waveform spec"))),
    }
}

/// Builds a [`Waveform`] from a parsed `NAME(args...)` spec.
fn build_waveform(
    func: &str,
    args: &[f64],
    name: &str,
    line: usize,
    diagnostics: &mut Vec<ParseDiagnostic>,
) -> Result<Waveform, NetlistError> {
    let err = |message: String| NetlistError::Parse { line, message };
    let wave_err = |e: se_engine::WaveformError| err(format!("`{name}`: {e}"));
    match func.to_ascii_uppercase().as_str() {
        "PULSE" => match args {
            [low, high, delay, width, period] => {
                Waveform::pulse(*low, *high, *delay, *width, *period).map_err(wave_err)
            }
            // The 7-argument SPICE form PULSE(v1 v2 td tr tf pw per): the
            // integrators of this toolkit use ideal edges, so rise/fall
            // times are dropped — loudly, via a diagnostic.
            [low, high, delay, rise, fall, width, period] => {
                diagnostics.push(ParseDiagnostic {
                    line,
                    message: format!(
                        "`{name}`: PULSE rise/fall times ({rise}, {fall}) ignored (ideal edges)"
                    ),
                });
                Waveform::pulse(*low, *high, *delay, *width, *period).map_err(wave_err)
            }
            _ => Err(err(format!(
                "`{name}`: PULSE needs (low high delay width period), got {} arguments",
                args.len()
            ))),
        },
        "SIN" | "SINE" => match args {
            [offset, amplitude, frequency] => {
                Waveform::sine(*offset, *amplitude, *frequency, 0.0).map_err(wave_err)
            }
            [offset, amplitude, frequency, phase] => {
                Waveform::sine(*offset, *amplitude, *frequency, *phase).map_err(wave_err)
            }
            _ => Err(err(format!(
                "`{name}`: SIN needs (offset amplitude frequency [phase]), got {} arguments",
                args.len()
            ))),
        },
        "PWL" => {
            if args.is_empty() || !args.len().is_multiple_of(2) {
                return Err(err(format!(
                    "`{name}`: PWL needs an even number of (time value) arguments, got {}",
                    args.len()
                )));
            }
            let points: Vec<(f64, f64)> = args.chunks(2).map(|pair| (pair[0], pair[1])).collect();
            Waveform::pwl(points).map_err(wave_err)
        }
        "STEP" => match args {
            [before, after, at] => Waveform::step(*before, *after, *at).map_err(wave_err),
            _ => Err(err(format!(
                "`{name}`: STEP needs (before after at), got {} arguments",
                args.len()
            ))),
        },
        other => Err(err(format!(
            "`{name}`: unknown waveform function `{other}` (use PULSE, SIN, PWL or STEP)"
        ))),
    }
}

fn parse_card(card: &str, line: usize, deck: &mut Deck) -> Result<Element, NetlistError> {
    let tokens: Vec<&str> = card.split_whitespace().collect();
    let err = |message: String| NetlistError::Parse { line, message };
    let name = tokens[0];
    let prefix = name
        .chars()
        .next()
        .ok_or_else(|| err("empty element name".into()))?
        .to_ascii_uppercase();

    let value_of = |token: &str| -> Result<f64, NetlistError> {
        parse_value(token).map_err(|e| err(e.to_string()))
    };

    // Split tokens after the nodes into positional values and KEY=VALUE pairs.
    let parse_kv = |tokens: &[&str]| -> Result<(Vec<f64>, HashMap<String, f64>), NetlistError> {
        let mut positional = Vec::new();
        let mut named = HashMap::new();
        for t in tokens {
            if let Some((k, v)) = t.split_once('=') {
                named.insert(k.to_ascii_uppercase(), value_of(v)?);
            } else if t.eq_ignore_ascii_case("set")
                || t.eq_ignore_ascii_case("nmos")
                || t.eq_ignore_ascii_case("pmos")
            {
                // Model keywords handled by the caller.
                named.insert(t.to_ascii_uppercase(), 1.0);
            } else {
                positional.push(value_of(t)?);
            }
        }
        Ok((positional, named))
    };

    let netlist = &mut deck.netlist;
    match prefix {
        'V' => {
            if tokens.len() < 4 {
                return Err(err(format!(
                    "`{name}` needs two nodes and a value or waveform, got `{card}`"
                )));
            }
            let a = netlist.node(tokens[1]);
            let b = netlist.node(tokens[2]);
            // Re-join the spec so functional forms like `PULSE(0 1m ...)`
            // survive whitespace tokenization.
            let spec = tokens[3..].join(" ");
            let (voltage, waveform) = parse_source_spec(&spec, name, line, &mut deck.diagnostics)?;
            if let Some(waveform) = waveform {
                deck.waveforms.push((name.to_string(), waveform));
            }
            Element::new(name, vec![a, b], ElementKind::VoltageSource { voltage })
        }
        'R' | 'C' | 'I' => {
            if tokens.len() < 4 {
                return Err(err(format!(
                    "`{name}` needs two nodes and a value, got `{card}`"
                )));
            }
            let a = netlist.node(tokens[1]);
            let b = netlist.node(tokens[2]);
            let value = value_of(tokens[3])?;
            let kind = match prefix {
                'R' => ElementKind::Resistor { resistance: value },
                'C' => ElementKind::Capacitor { capacitance: value },
                _ => ElementKind::CurrentSource { current: value },
            };
            Element::new(name, vec![a, b], kind)
        }
        'J' => {
            if tokens.len() < 4 {
                return Err(err(format!(
                    "`{name}` needs two nodes and C=/R= parameters, got `{card}`"
                )));
            }
            let a = netlist.node(tokens[1]);
            let b = netlist.node(tokens[2]);
            let (positional, named) = parse_kv(&tokens[3..])?;
            let capacitance = named
                .get("C")
                .copied()
                .or_else(|| positional.first().copied())
                .ok_or_else(|| err(format!("`{name}` is missing its capacitance (C=)")))?;
            let resistance = named
                .get("R")
                .copied()
                .or_else(|| positional.get(1).copied())
                .ok_or_else(|| err(format!("`{name}` is missing its tunnel resistance (R=)")))?;
            Element::new(
                name,
                vec![a, b],
                ElementKind::TunnelJunction {
                    capacitance,
                    resistance,
                },
            )
        }
        'D' => {
            if tokens.len() < 3 {
                return Err(err(format!("`{name}` needs two nodes, got `{card}`")));
            }
            let a = netlist.node(tokens[1]);
            let b = netlist.node(tokens[2]);
            let (_, named) = parse_kv(&tokens[3..])?;
            Element::new(
                name,
                vec![a, b],
                ElementKind::Diode {
                    saturation_current: named.get("IS").copied().unwrap_or(1e-14),
                    ideality: named.get("N").copied().unwrap_or(1.0),
                },
            )
        }
        'M' => {
            if tokens.len() < 4 {
                return Err(err(format!(
                    "`{name}` needs drain, gate and source nodes, got `{card}`"
                )));
            }
            let d = netlist.node(tokens[1]);
            let g = netlist.node(tokens[2]);
            let s = netlist.node(tokens[3]);
            let (_, named) = parse_kv(&tokens[4..])?;
            let mut params = if named.contains_key("PMOS") {
                MosfetParams::pmos_180nm()
            } else {
                MosfetParams::nmos_180nm()
            };
            if let Some(&vth) = named.get("VTH") {
                params.vth = vth;
            }
            if let Some(&kp) = named.get("KP") {
                params.kp = kp;
            }
            if let Some(&lambda) = named.get("LAMBDA") {
                params.lambda = lambda;
            }
            if named.contains_key("PMOS") {
                params.polarity = MosfetType::Pmos;
            }
            Element::new(name, vec![d, g, s], ElementKind::Mosfet { params })
        }
        'X' => {
            if tokens.len() < 5 {
                return Err(err(format!(
                    "`{name}` needs drain, gate, source nodes and the SET keyword, got `{card}`"
                )));
            }
            let d = netlist.node(tokens[1]);
            let g = netlist.node(tokens[2]);
            let s = netlist.node(tokens[3]);
            let (_, named) = parse_kv(&tokens[4..])?;
            if !named.contains_key("SET") {
                return Err(err(format!(
                    "`{name}`: only the SET subcircuit model is supported"
                )));
            }
            let mut params = SetParams::default();
            if let Some(&v) = named.get("CG") {
                params.c_gate = v;
            }
            if let Some(&v) = named.get("CS") {
                params.c_source = v;
            }
            if let Some(&v) = named.get("CD") {
                params.c_drain = v;
            }
            if let Some(&v) = named.get("RS") {
                params.r_source = v;
            }
            if let Some(&v) = named.get("RD") {
                params.r_drain = v;
            }
            if let Some(&v) = named.get("Q0") {
                params.background_charge = v;
            }
            Element::new(name, vec![d, g, s], ElementKind::SetTransistor { params })
        }
        other => Err(err(format!("unknown device prefix `{other}` in `{card}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;

    const SINGLE_SET_DECK: &str = r"single SET with gate bias
* drain and gate sources
VD drain 0 1m
VG gate 0 0
J1 drain island C=1a R=100k
J2 island 0 C=1a R=100k
CG gate island 0.5a
.end
";

    #[test]
    fn duplicate_names_differing_in_case_are_rejected_at_the_second_card() {
        let deck = "dup\nVD drain 0 1m\nJ1 drain island C=1a R=100k\n\
                    j1 island 0 C=1a R=100k\n.end\n";
        let err = parse_full_deck(deck).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateElement { name: "j1".into() });
        assert!(err.to_string().contains("`j1`"), "{err}");
        assert!(parse_deck(deck).is_err());
        // The same card under a distinct name parses.
        assert!(parse_full_deck(&deck.replace("j1 ", "J2 ")).is_ok());
    }
    #[test]
    fn parses_the_single_set_deck() {
        let netlist = parse_deck(SINGLE_SET_DECK).unwrap();
        assert_eq!(netlist.title(), "single SET with gate bias");
        assert_eq!(netlist.len(), 5);
        assert!(netlist.validate().is_ok());
        let islands = netlist.find_islands();
        assert_eq!(islands.len(), 1);
        match netlist.element("J1").unwrap().kind() {
            ElementKind::TunnelJunction {
                capacitance,
                resistance,
            } => {
                assert!((capacitance - 1e-18).abs() < 1e-30);
                assert!((resistance - 1e5).abs() < 1e-6);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn continuation_lines_are_joined() {
        let deck = "title\nJ1 a 0\n+ C=1a\n+ R=50k\nV1 a 0 1m\n";
        let netlist = parse_deck(deck).unwrap();
        match netlist.element("J1").unwrap().kind() {
            ElementKind::TunnelJunction { resistance, .. } => {
                assert!((resistance - 5e4).abs() < 1e-6);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn directives_can_be_continued_too() {
        let deck = "title\nV1 a 0 1\nR1 a 0 1k\n.dc V1 0 1\n+ 0.5\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert_eq!(
            parsed.analyses,
            vec![Analysis::DcSweep {
                sweep: SweepSpec {
                    source: "V1".into(),
                    start: 0.0,
                    stop: 1.0,
                    points: 3,
                }
            }]
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let deck = "title\n\n* a comment\nR1 a 0 1k ; trailing comment\nV1 a 0 1\n";
        let netlist = parse_deck(deck).unwrap();
        assert_eq!(netlist.len(), 2);
    }

    #[test]
    fn mosfet_and_set_cards_parse_parameters() {
        let deck = "hybrid cell\nVDD vdd 0 1.8\nM1 vdd in out NMOS VTH=0.4 KP=200u LAMBDA=0.05\nX1 out in 0 SET CG=2a CS=0.5a CD=0.5a RS=200k RD=200k Q0=0.1\nV2 in 0 0.9\nR1 out 0 1meg\n";
        let netlist = parse_deck(deck).unwrap();
        match netlist.element("M1").unwrap().kind() {
            ElementKind::Mosfet { params } => {
                assert!((params.vth - 0.4).abs() < 1e-12);
                assert!((params.kp - 200e-6).abs() < 1e-12);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        match netlist.element("X1").unwrap().kind() {
            ElementKind::SetTransistor { params } => {
                assert!((params.c_gate - 2e-18).abs() < 1e-30);
                assert!((params.background_charge - 0.1).abs() < 1e-12);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn diode_defaults_apply() {
        let deck = "d\nD1 a 0\nV1 a 0 0.7\n";
        let netlist = parse_deck(deck).unwrap();
        match netlist.element("D1").unwrap().kind() {
            ElementKind::Diode {
                saturation_current,
                ideality,
            } => {
                assert!((saturation_current - 1e-14).abs() < 1e-26);
                assert!((ideality - 1.0).abs() < 1e-12);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn unknown_prefix_is_reported_with_line_number() {
        let deck = "title\nQ1 a b c 1k\n";
        let err = parse_deck(deck).unwrap_err();
        match err {
            NetlistError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("unknown device prefix"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_junction_parameters_are_reported() {
        let deck = "title\nJ1 a 0 C=1a\n";
        let err = parse_deck(deck).unwrap_err();
        assert!(err.to_string().contains("tunnel resistance"));
    }

    #[test]
    fn empty_deck_is_an_error() {
        assert!(parse_deck("").is_err());
        assert!(parse_deck("\n\n* only comments\n").is_err());
    }

    #[test]
    fn orphan_continuation_is_an_error() {
        let err = parse_deck("+ R=1k\n").unwrap_err();
        assert!(err.to_string().contains("continuation"));
    }

    #[test]
    fn end_stops_parsing() {
        let deck = "title\nV1 a 0 1\nR1 a 0 1k\n.tran 1n 1u\n.end\nR2 a 0 1k\n";
        let netlist = parse_deck(deck).unwrap();
        // .end stops parsing, so R2 is not included.
        assert_eq!(netlist.len(), 2);
    }

    #[test]
    fn ground_aliases_in_decks() {
        let deck = "title\nV1 a gnd 1\nR1 a GND 1k\n";
        let netlist = parse_deck(deck).unwrap();
        let ground_connected = netlist
            .elements()
            .iter()
            .all(|e| e.nodes().contains(&Node::GROUND));
        assert!(ground_connected);
    }

    // ---- directive parsing -------------------------------------------------

    #[test]
    fn dc_sweep_directive_parses_with_point_count() {
        let deck = "set\nVD d 0 0\nJ1 d i C=1a R=100k\nJ2 i 0 C=1a R=100k\n.dc VD 0 0.1 2m\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert_eq!(parsed.analyses.len(), 1);
        match &parsed.analyses[0] {
            Analysis::DcSweep { sweep } => {
                assert_eq!(sweep.source, "VD");
                assert_eq!(sweep.points, 51);
                assert!((sweep.step() - 2e-3).abs() < 1e-12);
            }
            other => panic!("unexpected analysis {other:?}"),
        }
        assert!(parsed.diagnostics.is_empty());
    }

    #[test]
    fn descending_dc_sweeps_need_a_negative_step() {
        let good = "t\nV1 a 0 1\nR1 a 0 1k\n.dc V1 1 0 -0.25\n";
        let parsed = parse_full_deck(good).unwrap();
        match &parsed.analyses[0] {
            Analysis::DcSweep { sweep } => assert_eq!(sweep.points, 5),
            other => panic!("unexpected analysis {other:?}"),
        }
        let bad = "t\nV1 a 0 1\nR1 a 0 1k\n.dc V1 1 0 0.25\n";
        let err = parse_full_deck(bad).unwrap_err();
        assert!(err.to_string().contains("sweep direction"), "{err}");
    }

    #[test]
    fn non_dividing_dc_steps_are_flagged_not_silently_redistributed() {
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.dc V1 0 1 0.3\n";
        let parsed = parse_full_deck(deck).unwrap();
        match &parsed.analyses[0] {
            Analysis::DcSweep { sweep } => assert_eq!(sweep.points, 4),
            other => panic!("unexpected analysis {other:?}"),
        }
        assert_eq!(parsed.diagnostics.len(), 1, "{:?}", parsed.diagnostics);
        assert!(
            parsed.diagnostics[0].message.contains("evenly divide"),
            "{:?}",
            parsed.diagnostics
        );
        // An exactly dividing step stays silent.
        let exact = parse_full_deck("t\nV1 a 0 1\nR1 a 0 1k\n.dc V1 0 1 0.25\n").unwrap();
        assert!(exact.diagnostics.is_empty(), "{:?}", exact.diagnostics);
    }

    #[test]
    fn two_source_dc_builds_a_map_with_spice_axis_order() {
        let deck = "t\nVD a 0 1\nVG b 0 0\nR1 a 0 1k\nR2 b 0 1k\n.dc VD -1 1 1 VG 0 4 2\n";
        let parsed = parse_full_deck(deck).unwrap();
        match &parsed.analyses[0] {
            Analysis::DcMap { outer, inner } => {
                // First source on the card = fast/inner axis.
                assert_eq!(inner.source, "VD");
                assert_eq!(inner.points, 3);
                assert_eq!(outer.source, "VG");
                assert_eq!(outer.points, 3);
            }
            other => panic!("unexpected analysis {other:?}"),
        }
    }

    #[test]
    fn malformed_dc_directives_are_hard_errors() {
        for bad in [
            ".dc",
            ".dc VD 0 1",
            ".dc VD 0 1 0",
            ".dc VD 0 1 nope",
            ".dc VD 0 1 0.5 VG 0 1",
            ".dc 0 1 0.5 VG",
        ] {
            let deck = format!("t\nVD a 0 1\nR1 a 0 1k\n{bad}\n");
            let err = parse_full_deck(&deck).unwrap_err();
            assert!(
                matches!(err, NetlistError::Parse { line: 4, .. }),
                "`{bad}` should fail on line 4, got {err:?}"
            );
        }
    }

    #[test]
    fn tran_directive_parses_and_validates() {
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.tran 1n 1u\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert_eq!(
            parsed.analyses,
            vec![Analysis::Transient {
                step: 1e-9,
                stop: 1e-6,
            }]
        );
        for bad in [
            ".tran",
            ".tran 1n",
            ".tran 0 1u",
            ".tran 1u 1n",
            ".tran 1n 1u 2",
        ] {
            let deck = format!("t\nV1 a 0 1\nR1 a 0 1k\n{bad}\n");
            assert!(parse_full_deck(&deck).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn oversized_tran_grids_and_bad_element_values_are_line_numbered_errors() {
        // A truncated stop (`20n` → `2`) asks for 2e9 samples.
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.tran 1n 2\n";
        let err = parse_full_deck(deck).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 4, .. }), "{err}");
        assert!(err.to_string().contains("samples"), "{err}");
        // The element constructor's refusal carries the card's line.
        let deck = "t\nV1 a 0 1\nJ1 a 0 C=0 R=100k\n.tran 1n 1u\n";
        let err = parse_full_deck(deck).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("`J1`"), "{err}");
    }

    #[test]
    fn options_merge_and_validate() {
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.options temp=4.2 seed=42\n.options engine=kmc events=2000 window=4 maxstates=10000 repeats=16 solver=gauss-seidel\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert!((parsed.options.temperature - 4.2).abs() < 1e-12);
        assert_eq!(parsed.options.seed, 42);
        assert_eq!(parsed.options.engine, EnginePreference::Kmc);
        assert_eq!(parsed.options.kmc_events, Some(2000));
        assert_eq!(parsed.options.master_window, Some(4));
        assert_eq!(parsed.options.master_max_states, Some(10_000));
        assert_eq!(parsed.options.repeats, Some(16));
        assert_eq!(parsed.options.solver, Some(SolverPreference::GaussSeidel));

        for bad in [
            ".options temp=-1",
            ".options seed=abc",
            ".options engine=verilog",
            ".options window=0",
            ".options maxstates=0",
            ".options events=0",
            ".options repeats=0",
            ".options repeats=many",
            ".options solver=multigrid",
        ] {
            let deck = format!("t\nV1 a 0 1\nR1 a 0 1k\n{bad}\n");
            assert!(parse_full_deck(&deck).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn zero_repeats_is_a_line_numbered_error_not_a_silent_no_op() {
        // `repeats=0` would make every ensemble point an empty average; it
        // must be refused *at the card*, citing the deck line.
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.options engine=kmc\n.options repeats=0\n";
        let err = parse_full_deck(deck).unwrap_err();
        match err {
            NetlistError::Parse { line, ref message } => {
                assert_eq!(line, 5, "{err}");
                assert!(message.contains("repeats"), "{err}");
            }
            ref other => panic!("expected a parse error, got {other}"),
        }
    }

    #[test]
    fn unknown_directives_and_options_become_diagnostics() {
        let deck =
            "t\nV1 a 0 1\nR1 a 0 1k\n.ac dec 10 1 1g\n.options gmin=1e-12\n.print v(a) i(V1)\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert_eq!(parsed.probes, vec!["V1".to_string()]);
        let messages: Vec<String> = parsed
            .diagnostics
            .iter()
            .map(ParseDiagnostic::to_string)
            .collect();
        assert_eq!(parsed.diagnostics.len(), 3, "{messages:?}");
        assert!(messages[0].contains(".ac"), "{messages:?}");
        assert!(messages[1].contains("gmin"), "{messages:?}");
        assert!(messages[2].contains("voltage probe"), "{messages:?}");
        assert_eq!(parsed.diagnostics[0].line, 4);
    }

    #[test]
    fn print_accepts_mode_tokens_and_bare_names() {
        let deck = "t\nV1 a 0 1\nR1 a 0 1k\n.print dc i(J1) J2\n.probe tran i(V1)\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert_eq!(
            parsed.probes,
            vec!["J1".to_string(), "J2".to_string(), "V1".to_string()]
        );
    }

    // ---- source waveforms --------------------------------------------------

    #[test]
    fn pulse_source_parses_and_sets_the_dc_value() {
        let deck = "t\nVD a 0 PULSE(0 1m 20n 40n 1u)\nR1 a 0 1k\n";
        let parsed = parse_full_deck(deck).unwrap();
        let waveform = parsed.waveform_of("VD").unwrap();
        assert_eq!(
            *waveform,
            Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap()
        );
        match parsed.netlist.element("VD").unwrap().kind() {
            ElementKind::VoltageSource { voltage } => assert_eq!(*voltage, 0.0),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn seven_argument_pulse_drops_edges_with_a_diagnostic() {
        let deck = "t\nVD a 0 PULSE(0 1m 20n 1n 1n 40n 1u)\nR1 a 0 1k\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert_eq!(
            *parsed.waveform_of("VD").unwrap(),
            Waveform::pulse(0.0, 1e-3, 20e-9, 40e-9, 1e-6).unwrap()
        );
        assert_eq!(parsed.diagnostics.len(), 1);
        assert!(parsed.diagnostics[0].message.contains("rise/fall"));
    }

    #[test]
    fn sin_pwl_and_step_sources_parse() {
        let deck = "t\nVA a 0 SIN(0 1m 1g)\nVB b 0 PWL(0 0 1n 1m 2n 0)\nVC c 0 STEP(0 1m 5n)\nR1 a 0 1k\nR2 b 0 1k\nR3 c 0 1k\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert_eq!(
            *parsed.waveform_of("VA").unwrap(),
            Waveform::sine(0.0, 1e-3, 1e9, 0.0).unwrap()
        );
        assert_eq!(
            *parsed.waveform_of("VB").unwrap(),
            Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1e-3), (2e-9, 0.0)]).unwrap()
        );
        assert_eq!(
            *parsed.waveform_of("VC").unwrap(),
            Waveform::step(0.0, 1e-3, 5e-9).unwrap()
        );
    }

    #[test]
    fn explicit_dc_value_overrides_the_waveform_origin() {
        let deck = "t\nVD a 0 DC 0.5m PULSE(0 1m 20n 40n 1u)\nR1 a 0 1k\n";
        let parsed = parse_full_deck(deck).unwrap();
        match parsed.netlist.element("VD").unwrap().kind() {
            ElementKind::VoltageSource { voltage } => assert_eq!(*voltage, 0.5e-3),
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn commas_are_accepted_inside_waveform_args() {
        let deck = "t\nVD a 0 PULSE(0, 1m, 20n, 40n, 1u)\nR1 a 0 1k\n";
        let parsed = parse_full_deck(deck).unwrap();
        assert!(parsed.waveform_of("VD").is_some());
    }

    #[test]
    fn malformed_waveforms_are_reported() {
        for bad in [
            "VD a 0 PULSE(0 1m",
            "VD a 0 PULSE(0 1m 20n 40n 1u) extra",
            "VD a 0 PULSE(0 1m 20n)",
            "VD a 0 NOISE(1 2 3)",
            "VD a 0 PWL(0 0 1n)",
            "VD a 0 DC PULSE(0 1m 20n 40n 1u)",
            "VD a 0",
        ] {
            let deck = format!("t\n{bad}\nR1 a 0 1k\n");
            assert!(parse_full_deck(&deck).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn legacy_parse_deck_still_returns_the_bare_netlist() {
        let deck = "t\nVD a 0 PULSE(0 1m 20n 40n 1u)\nR1 a 0 1k\n.dc VD 0 1 0.5\n.print i(VD)\n";
        let netlist = parse_deck(deck).unwrap();
        assert_eq!(netlist.len(), 2);
    }
}
