//! Table V assembly: worst-net link delay and power per technology.
//!
//! Each technology contributes two monitored links — the worst
//! logic-to-memory (intra-tile) and logic-to-logic (inter-tile)
//! connection. Lengths come either from our own routed layouts
//! (self-consistent mode) or from the paper's monitored nets (for direct
//! Table V comparison). The `_in` forms take an explicit
//! [`StudyContext`], so scenario overrides reach the channel geometry
//! and the link decks; the historical forms delegate to the shared
//! default context.

use crate::context::{default_context, StudyContext};
use crate::FlowError;
use interposer::diemap::NetClass;
use serde::{Deserialize, Serialize};
use si::link::{simulate_link_from, ChannelKind, LinkBaseline, LinkReport};
use techlib::spec::{InterposerKind, Stacking};
use techlib::store::{hash_spec_field, KeyHasher, SpecField, StoreKey};

/// Where the monitored net lengths come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MonitorLengths {
    /// Worst nets of our own routed interposers.
    Routed,
    /// The paper's monitored net lengths (Table V "WL" column).
    Paper,
}

/// One Table V row (one technology, both link classes).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Row {
    /// Technology.
    pub tech: InterposerKind,
    /// Logic-to-memory link.
    pub l2m: LinkReport,
    /// Logic-to-logic link.
    pub l2l: LinkReport,
}

/// Paper Table V monitored wirelengths, µm: (L2M, L2L).
pub fn paper_lengths(tech: InterposerKind) -> Option<(f64, f64)> {
    match tech {
        InterposerKind::Glass25D => Some((5_980.0, 1_794.0)),
        InterposerKind::Glass3D => Some((65.0, 582.0)),
        InterposerKind::Silicon25D => Some((1_952.0, 1_063.0)),
        InterposerKind::Shinko => Some((3_700.0, 2_600.0)),
        InterposerKind::Apx => Some((5_900.0, 3_500.0)),
        _ => None,
    }
}

/// The two channels monitored for `tech` (default context).
///
/// # Errors
///
/// Propagates routing failures in [`MonitorLengths::Routed`] mode.
pub fn channels_for(
    tech: InterposerKind,
    mode: MonitorLengths,
) -> Result<(ChannelKind, ChannelKind), FlowError> {
    channels_for_in(&default_context(), tech, mode)
}

/// The two channels monitored for `tech`, with routed lengths and
/// stacking taken from `ctx`'s resolved spec and layout cache.
///
/// # Errors
///
/// Propagates routing failures in [`MonitorLengths::Routed`] mode.
pub fn channels_for_in(
    ctx: &StudyContext,
    tech: InterposerKind,
    mode: MonitorLengths,
) -> Result<(ChannelKind, ChannelKind), FlowError> {
    if techlib::faults::armed("extract.channels") {
        // Injected fault: report the monitored-net extraction as a deck
        // parse failure, the shape a malformed channel table produces.
        return Err(FlowError::Parse(circuit::parser::ParseError {
            line: 0,
            reason: format!("injected channel-extraction fault for {tech}"),
        }));
    }
    match ctx.spec(tech).stacking {
        Stacking::TsvStack => Ok((ChannelKind::MicroBump, ChannelKind::BackToBackTsv)),
        Stacking::Embedded => {
            let l2l_len = match mode {
                MonitorLengths::Paper => {
                    let Some((_, l2l)) = paper_lengths(tech) else {
                        return Err(FlowError::InvalidConfig {
                            reason: format!("no paper Table V lengths for {tech}"),
                        });
                    };
                    l2l
                }
                MonitorLengths::Routed => ctx.layout(tech)?.worst_net_um(NetClass::InterTile),
            };
            Ok((
                ChannelKind::StackedViaColumn { levels: 3 },
                ChannelKind::RdlTrace {
                    tech,
                    length_um: l2l_len,
                },
            ))
        }
        Stacking::SideBySide => {
            let (l2m, l2l) = match mode {
                MonitorLengths::Paper => {
                    let Some(lens) = paper_lengths(tech) else {
                        return Err(FlowError::InvalidConfig {
                            reason: format!("no paper Table V lengths for {tech}"),
                        });
                    };
                    lens
                }
                MonitorLengths::Routed => {
                    let layout = ctx.layout(tech)?;
                    (
                        layout.worst_net_um(NetClass::IntraTileLateral),
                        layout.worst_net_um(NetClass::InterTile),
                    )
                }
            };
            Ok((
                ChannelKind::RdlTrace {
                    tech,
                    length_um: l2m,
                },
                ChannelKind::RdlTrace {
                    tech,
                    length_um: l2l,
                },
            ))
        }
        Stacking::Monolithic => Err(FlowError::Route(interposer::RouteError::NoInterposer(tech))),
    }
}

/// Algorithm version of the SI-links stage (deck construction, transient
/// settings, delay/power extraction). Bump whenever any of those — or
/// the serialized shape of [`Table5Row`] — changes.
pub const LINKS_STAGE_VERSION: u32 = 1;

/// Hashes one monitored channel into a links stage key: the channel
/// descriptor itself (which already embeds any routed worst-net length,
/// subsuming the layout upstream key) plus the **full** resolved spec of
/// the technology the channel terminates on — the transient deck reads
/// wire geometry, dielectric properties, loss tangent and bump/via
/// dimensions, so no narrower projection is sound here.
fn hash_channel(h: &mut KeyHasher, label: &str, channel: &ChannelKind, ctx: &StudyContext) {
    match channel {
        ChannelKind::RdlTrace { tech, length_um } => {
            h.field_str(&format!("{label}.channel"), "rdl_trace");
            h.field_str(&format!("{label}.tech"), &format!("{tech:?}"));
            h.field_f64(&format!("{label}.length_um"), *length_um);
        }
        ChannelKind::StackedViaColumn { levels } => {
            h.field_str(&format!("{label}.channel"), "stacked_via_column");
            h.field_u64(&format!("{label}.levels"), *levels as u64);
        }
        ChannelKind::MicroBump => {
            h.field_str(&format!("{label}.channel"), "microbump");
        }
        ChannelKind::BackToBackTsv => {
            h.field_str(&format!("{label}.channel"), "back_to_back_tsv");
        }
    }
    let spec = ctx.spec(channel.tech());
    for field in SpecField::ALL {
        hash_spec_field(h, spec, field);
    }
}

/// The links stage's store key for one row: the row technology and both
/// extracted channels (with the full specs they are simulated against).
/// The monitored-length mode is *not* hashed separately — its entire
/// effect is the lengths already inside the channel descriptors, so the
/// two modes share one entry whenever they extract identical channels
/// (as on Silicon 3D, whose channels carry no length at all).
pub fn links_store_key(
    ctx: &StudyContext,
    tech: InterposerKind,
    l2m: &ChannelKind,
    l2l: &ChannelKind,
) -> StoreKey {
    let mut h = KeyHasher::new("si_links", LINKS_STAGE_VERSION);
    h.field_str("tech", &format!("{tech:?}"));
    hash_channel(&mut h, "l2m", l2m, ctx);
    hash_channel(&mut h, "l2l", l2l, ctx);
    h.finish()
}

/// The uncached link-row computation: simulates both extracted channels
/// against the specs of the technologies they terminate on. The cached
/// entry point wrapping this is [`StudyContext::links_row`].
///
/// # Errors
///
/// Propagates simulation failures.
pub(crate) fn simulate_row(
    ctx: &StudyContext,
    tech: InterposerKind,
    l2m: &ChannelKind,
    l2l: &ChannelKind,
) -> Result<Table5Row, FlowError> {
    // Both links are measured against the zero-length baseline deck of
    // their technology's spec; when they share the technology (every
    // row `channels_for_in` builds), that deck runs once.
    let shared_baseline = l2m.tech() == l2l.tech();
    let (m_spec, l_spec) = (ctx.spec(l2m.tech()), ctx.spec(l2l.tech()));
    let m_base = LinkBaseline::simulate(m_spec)?;
    let l2m = simulate_link_from(l2m, m_spec, &m_base)?;
    let l_base = if shared_baseline {
        m_base
    } else {
        LinkBaseline::simulate(l_spec)?
    };
    let l2l = simulate_link_from(l2l, l_spec, &l_base)?;
    Ok(Table5Row { tech, l2m, l2l })
}

/// Builds one Table V row against the default context.
///
/// # Errors
///
/// Propagates routing and simulation failures.
pub fn row(tech: InterposerKind, mode: MonitorLengths) -> Result<Table5Row, FlowError> {
    row_in(&default_context(), tech, mode)
}

/// Builds one Table V row against an explicit context: each link is
/// simulated with the spec of the channel's own technology as resolved
/// by `ctx` (scenario overrides reach the RLGC extraction and the bump
/// models). Rows are memoized per (technology, mode) in `ctx` — and
/// shared through its artifact store when one is attached.
///
/// # Errors
///
/// Propagates routing and simulation failures.
pub fn row_in(
    ctx: &StudyContext,
    tech: InterposerKind,
    mode: MonitorLengths,
) -> Result<Table5Row, FlowError> {
    ctx.links_row(tech, mode).map(|row| (*row).clone())
}

/// Builds the whole Table V (all six packaged technologies), simulating
/// the independent per-technology rows in parallel; rows come back in
/// `PACKAGED` order.
///
/// # Errors
///
/// Propagates per-row failures (first failing technology in `PACKAGED`
/// order).
pub fn table5(mode: MonitorLengths) -> Result<Vec<Table5Row>, FlowError> {
    let ctx = default_context();
    crate::exec::try_ordered_map(&InterposerKind::PACKAGED, |&tech| row_in(&ctx, tech, mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mode_reproduces_table5_orderings() {
        let rows = table5(MonitorLengths::Paper).unwrap();
        let get = |t: InterposerKind| rows.iter().find(|r| r.tech == t).unwrap();
        let si3d = get(InterposerKind::Silicon3D);
        let g3 = get(InterposerKind::Glass3D);
        let si25 = get(InterposerKind::Silicon25D);
        let g25 = get(InterposerKind::Glass25D);
        let shinko = get(InterposerKind::Shinko);
        let apx = get(InterposerKind::Apx);

        // L2M delay: Si3D < Glass3D < everything lateral.
        assert!(si3d.l2m.interconnect_delay_ps < g3.l2m.interconnect_delay_ps);
        for lateral in [si25, g25, shinko, apx] {
            assert!(
                g3.l2m.interconnect_delay_ps < lateral.l2m.interconnect_delay_ps,
                "{}",
                lateral.tech
            );
        }
        // Glass's thick copper beats silicon per millimetre (the paper's
        // absolute inversion at 3x length rests on a glass delay value
        // that implies super-dielectric propagation; see EXPERIMENTS.md).
        assert!(
            g25.l2m.interconnect_delay_ps / g25.l2m.length_um
                < si25.l2m.interconnect_delay_ps / si25.l2m.length_um
        );
        // L2L delay: Si3D best.
        for other in [g3, si25, g25, shinko, apx] {
            assert!(
                si3d.l2l.interconnect_delay_ps <= other.l2l.interconnect_delay_ps,
                "{}",
                other.tech
            );
        }
        // Organic interposers carry the highest L2M power.
        assert!(apx.l2m.total_power_uw() > si3d.l2m.total_power_uw() * 3.0);
    }

    #[test]
    fn routed_mode_glass_beats_silicon_absolutely() {
        // With our own routed worst nets, the absolute L2M ordering of
        // Table V holds directly.
        let rows = table5(MonitorLengths::Routed).unwrap();
        let get = |t: InterposerKind| rows.iter().find(|r| r.tech == t).unwrap();
        let g25 = get(InterposerKind::Glass25D);
        let si25 = get(InterposerKind::Silicon25D);
        assert!(
            g25.l2m.interconnect_delay_ps < si25.l2m.interconnect_delay_ps,
            "{} vs {}",
            g25.l2m.interconnect_delay_ps,
            si25.l2m.interconnect_delay_ps
        );
    }

    #[test]
    fn routed_mode_produces_all_rows() {
        let rows = table5(MonitorLengths::Routed).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.l2m.total_delay_ps() > 0.0, "{}", r.tech);
            assert!(r.l2l.total_power_uw() > 0.0, "{}", r.tech);
        }
    }

    #[test]
    fn paper_lengths_cover_exactly_the_five_interposer_techs() {
        let covered = InterposerKind::PACKAGED
            .iter()
            .filter(|&&t| paper_lengths(t).is_some())
            .count();
        assert_eq!(covered, 5);
        assert!(paper_lengths(InterposerKind::Monolithic2D).is_none());
    }
}
