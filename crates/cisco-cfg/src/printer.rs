//! Pretty-printer: AST → canonical IOS text.
//!
//! The printer emits configurations in the shape an operator would write
//! (and the shape the Composer hands to Batfish-lite): blocks separated by
//! `!`, one-space indentation inside blocks, attributes in a fixed order.
//! `parse ∘ print` is the identity on the supported AST (covered by a
//! property test), which is what lets the VPP loop round-trip configs
//! through the simulated LLM without drift.
//!
//! Every simulated model response is rendered here, so [`print()`] writes
//! into one `String` sized up front from the AST, and writes list items
//! and addresses straight into it, with no intermediate strings.

use crate::ast::*;
use std::fmt::{self, Display, Write as _};
use std::net::Ipv4Addr;

/// Prints a configuration to canonical IOS text.
pub fn print(cfg: &CiscoConfig) -> String {
    let mut out = String::with_capacity(capacity(cfg));
    if let Some(h) = &cfg.hostname {
        writeln!(out, "hostname {h}\n!").unwrap();
    }
    for iface in &cfg.interfaces {
        writeln!(out, "interface {}", iface.name).unwrap();
        if let Some(d) = &iface.description {
            writeln!(out, " description {d}").unwrap();
        }
        if let Some(a) = &iface.address {
            writeln!(
                out,
                " ip address {} {}",
                Dotted(a.addr),
                Dotted(a.dotted_mask())
            )
            .unwrap();
        }
        if let Some(c) = iface.ospf_cost {
            writeln!(out, " ip ospf cost {c}").unwrap();
        }
        if iface.shutdown {
            out.push_str(" shutdown\n");
        }
        out.push_str("!\n");
    }
    if let Some(ospf) = &cfg.ospf {
        writeln!(out, "router ospf {}", ospf.process_id).unwrap();
        if let Some(id) = ospf.router_id {
            writeln!(out, " router-id {}", Dotted(id)).unwrap();
        }
        for n in &ospf.networks {
            writeln!(
                out,
                " network {} {} area {}",
                Dotted(n.prefix.network()),
                Dotted(n.prefix.wildcard_mask()),
                n.area
            )
            .unwrap();
        }
        if ospf.passive_default {
            out.push_str(" passive-interface default\n");
        }
        for i in &ospf.passive_interfaces {
            writeln!(out, " passive-interface {i}").unwrap();
        }
        for i in &ospf.active_interfaces {
            writeln!(out, " no passive-interface {i}").unwrap();
        }
        out.push_str("!\n");
    }
    if let Some(bgp) = &cfg.bgp {
        writeln!(out, "router bgp {}", bgp.asn).unwrap();
        if let Some(id) = bgp.router_id {
            writeln!(out, " bgp router-id {}", Dotted(id)).unwrap();
        }
        for n in &bgp.networks {
            writeln!(
                out,
                " network {} mask {}",
                Dotted(n.prefix.network()),
                Dotted(n.prefix.dotted_mask())
            )
            .unwrap();
        }
        for r in &bgp.redistribute {
            match &r.route_map {
                Some(m) => writeln!(out, " redistribute {} route-map {m}", r.protocol).unwrap(),
                None => writeln!(out, " redistribute {}", r.protocol).unwrap(),
            }
        }
        for n in &bgp.neighbors {
            let addr = Dotted(n.addr);
            if let Some(asn) = n.remote_as {
                writeln!(out, " neighbor {addr} remote-as {asn}").unwrap();
            }
            if let Some(d) = &n.description {
                writeln!(out, " neighbor {addr} description {d}").unwrap();
            }
            if n.send_community {
                writeln!(out, " neighbor {addr} send-community").unwrap();
            }
            if n.next_hop_self {
                writeln!(out, " neighbor {addr} next-hop-self").unwrap();
            }
            if let Some(m) = &n.route_map_in {
                writeln!(out, " neighbor {addr} route-map {m} in").unwrap();
            }
            if let Some(m) = &n.route_map_out {
                writeln!(out, " neighbor {addr} route-map {m} out").unwrap();
            }
        }
        out.push_str("!\n");
    }
    for pl in &cfg.prefix_lists {
        for e in &pl.entries {
            let p = &e.pattern;
            write!(
                out,
                "ip prefix-list {} seq {} {} {}/{}",
                pl.name,
                e.seq,
                action(e.permit),
                Dotted(p.prefix.network()),
                p.prefix.len()
            )
            .unwrap();
            if let Some(g) = p.ge {
                write!(out, " ge {g}").unwrap();
            }
            if let Some(l) = p.le {
                write!(out, " le {l}").unwrap();
            }
            out.push('\n');
        }
    }
    if !cfg.prefix_lists.is_empty() {
        out.push_str("!\n");
    }
    for cl in &cfg.community_lists {
        for e in &cl.entries {
            write!(
                out,
                "ip community-list standard {} {} ",
                cl.name,
                action(e.permit)
            )
            .unwrap();
            line_of(&mut out, &e.communities);
        }
    }
    if !cfg.community_lists.is_empty() {
        out.push_str("!\n");
    }
    for al in &cfg.as_path_lists {
        for (permit, regex) in &al.entries {
            writeln!(
                out,
                "ip as-path access-list {} {} {regex}",
                al.name,
                action(*permit)
            )
            .unwrap();
        }
    }
    if !cfg.as_path_lists.is_empty() {
        out.push_str("!\n");
    }
    for rm in &cfg.route_maps {
        for s in &rm.stanzas {
            writeln!(out, "route-map {} {} {}", rm.name, action(s.permit), s.seq).unwrap();
            for m in &s.matches {
                match m {
                    MatchClause::IpAddressPrefixList(lists) => {
                        out.push_str(" match ip address prefix-list ");
                        line_of(&mut out, lists);
                    }
                    MatchClause::Community(lists) => {
                        out.push_str(" match community ");
                        line_of(&mut out, lists);
                    }
                    MatchClause::AsPath(n) => writeln!(out, " match as-path {n}").unwrap(),
                    MatchClause::SourceProtocol(p) => {
                        writeln!(out, " match source-protocol {p}").unwrap()
                    }
                }
            }
            for st in &s.sets {
                match st {
                    SetClause::Community {
                        communities,
                        additive,
                    } => {
                        out.push_str(" set community ");
                        if *additive {
                            words_of(&mut out, communities);
                            out.push_str(" additive\n");
                        } else {
                            line_of(&mut out, communities);
                        }
                    }
                    SetClause::Metric(v) => writeln!(out, " set metric {v}").unwrap(),
                    SetClause::LocalPreference(v) => {
                        writeln!(out, " set local-preference {v}").unwrap()
                    }
                    SetClause::AsPathPrepend(asns) => {
                        out.push_str(" set as-path prepend ");
                        line_of(&mut out, asns);
                    }
                    SetClause::NextHop(a) => {
                        writeln!(out, " set ip next-hop {}", Dotted(*a)).unwrap()
                    }
                    SetClause::Weight(v) => writeln!(out, " set weight {v}").unwrap(),
                }
            }
        }
        out.push_str("!\n");
    }
    for raw in &cfg.extra_lines {
        out.push_str(raw);
        out.push('\n');
    }
    out
}

/// An address as `Ipv4Addr`'s `Display` prints it, written with one
/// formatter call where that makes one per octet.
#[derive(Clone, Copy)]
struct Dotted(Ipv4Addr);

impl Display for Dotted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0u8; 15];
        let mut n = 0;
        for (k, octet) in self.0.octets().into_iter().enumerate() {
            if k > 0 {
                buf[n] = b'.';
                n += 1;
            }
            if octet >= 100 {
                buf[n] = b'0' + octet / 100;
                n += 1;
            }
            if octet >= 10 {
                buf[n] = b'0' + octet / 10 % 10;
                n += 1;
            }
            buf[n] = b'0' + octet % 10;
            n += 1;
        }
        f.write_str(std::str::from_utf8(&buf[..n]).expect("ASCII digits"))
    }
}

fn action(permit: bool) -> &'static str {
    if permit {
        "permit"
    } else {
        "deny"
    }
}

/// Writes `items` separated by single spaces: nothing for an empty list,
/// so a line that prints one keeps the space before it.
fn words_of<T: Display>(out: &mut String, items: impl IntoIterator<Item = T>) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        write!(out, "{item}").unwrap();
    }
}

/// [`words_of`], then the end of the line.
fn line_of<T: Display>(out: &mut String, items: impl IntoIterator<Item = T>) {
    words_of(out, items);
    out.push('\n');
}

/// An upper bound on the printed length of `cfg`, so that `print` fills
/// one allocation: each line's fixed words with its numbers and addresses
/// at their widest (a `u32` prints in at most 10 bytes, an address in 15,
/// a community in 11), plus the names, texts and list items it prints.
fn capacity(cfg: &CiscoConfig) -> usize {
    let when = |present: bool, len: usize| if present { len } else { 0 };
    let text = |s: &Option<String>, fixed: usize| s.as_ref().map_or(0, |s| fixed + s.len());
    let names = |v: &[String]| v.iter().map(|s| s.len() + 1).sum::<usize>();
    let mut n = text(&cfg.hostname, 12);
    for i in &cfg.interfaces {
        n += 13
            + i.name.as_str().len()
            + text(&i.description, 14)
            + when(i.address.is_some(), 44)
            + when(i.ospf_cost.is_some(), 25)
            + when(i.shutdown, 10);
    }
    if let Some(o) = &cfg.ospf {
        n += 25 + when(o.router_id.is_some(), 27) + when(o.passive_default, 27);
        n += 57 * o.networks.len();
        for i in o.passive_interfaces.iter().chain(&o.active_interfaces) {
            n += 24 + i.as_str().len();
        }
    }
    if let Some(b) = &cfg.bgp {
        n += 24 + when(b.router_id.is_some(), 31) + 46 * b.networks.len();
        for r in &b.redistribute {
            n += 25 + text(&r.route_map, 11);
        }
        for nb in &b.neighbors {
            n += when(nb.remote_as.is_some(), 47)
                + text(&nb.description, 39)
                + when(nb.send_community, 41)
                + when(nb.next_hop_self, 40)
                + text(&nb.route_map_in, 40)
                + text(&nb.route_map_out, 41);
        }
    }
    for pl in &cfg.prefix_lists {
        n += 2 + pl.entries.len() * (69 + pl.name.len());
    }
    for cl in &cfg.community_lists {
        n += 2;
        for e in &cl.entries {
            n += 36 + cl.name.len() + 12 * e.communities.len();
        }
    }
    for al in &cfg.as_path_lists {
        n += 2;
        for (_, regex) in &al.entries {
            n += 32 + al.name.len() + regex.len();
        }
    }
    for rm in &cfg.route_maps {
        n += 2;
        for s in &rm.stanzas {
            n += 29 + rm.name.len();
            for m in &s.matches {
                n += match m {
                    MatchClause::IpAddressPrefixList(lists) => 31 + names(lists),
                    MatchClause::Community(lists) => 18 + names(lists),
                    MatchClause::AsPath(name) => 16 + name.len(),
                    MatchClause::SourceProtocol(_) => 33,
                };
            }
            for st in &s.sets {
                n += match st {
                    SetClause::Community { communities, .. } => 25 + 12 * communities.len(),
                    SetClause::AsPathPrepend(asns) => 21 + 11 * asns.len(),
                    _ => 33,
                };
            }
        }
    }
    n + names(&cfg.extra_lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SAMPLE: &str = "\
hostname border1
interface Ethernet0/1
 description uplink
 ip address 10.0.1.1 255.255.255.0
 ip ospf cost 10
router ospf 1
 router-id 1.2.3.4
 network 10.0.1.0 0.0.0.255 area 0
 passive-interface Loopback0
router bgp 100
 bgp router-id 1.2.3.4
 network 1.2.3.0 mask 255.255.255.0
 redistribute ospf route-map ospf_to_bgp
 neighbor 2.3.4.5 remote-as 200
 neighbor 2.3.4.5 send-community
 neighbor 2.3.4.5 route-map from_provider in
 neighbor 2.3.4.5 route-map to_provider out
ip prefix-list our-networks seq 5 permit 1.2.3.0/24 ge 24
ip community-list standard cl permit 100:1
ip as-path access-list 1 permit ^$
route-map to_provider permit 10
 match ip address prefix-list our-networks
 set metric 50
 set community 100:1 additive
route-map to_provider deny 100
route-map from_provider permit 10
 set local-preference 120
route-map ospf_to_bgp permit 10
 match source-protocol ospf
";

    #[test]
    fn print_parse_is_identity_on_ast() {
        let (cfg, w) = parse(SAMPLE);
        assert!(w.is_empty(), "{w:?}");
        let printed = print(&cfg);
        let (cfg2, w2) = parse(&printed);
        assert!(w2.is_empty(), "reprint warnings: {w2:?}\n{printed}");
        assert_eq!(cfg, cfg2, "printed:\n{printed}");
    }

    #[test]
    fn print_is_idempotent() {
        let (cfg, _) = parse(SAMPLE);
        let once = print(&cfg);
        let (cfg2, _) = parse(&once);
        let twice = print(&cfg2);
        assert_eq!(once, twice);
    }

    #[test]
    fn printed_neighbor_lines_are_inside_bgp_block() {
        let (cfg, _) = parse(SAMPLE);
        let printed = print(&cfg);
        let bgp_pos = printed.find("router bgp").unwrap();
        let nbr_pos = printed.find("neighbor 2.3.4.5 remote-as").unwrap();
        assert!(nbr_pos > bgp_pos);
        // neighbor lines are indented (block members)
        for line in printed.lines() {
            if line.contains("neighbor") {
                assert!(line.starts_with(' '), "neighbor not in block: {line}");
            }
        }
    }

    #[test]
    fn empty_config_prints_empty() {
        assert_eq!(print(&CiscoConfig::default()), "");
    }

    #[test]
    fn empty_lists_keep_the_space_before_them() {
        let mut cfg = CiscoConfig::default();
        cfg.community_lists.push(CommunityList {
            name: "cl".into(),
            entries: vec![net_model::CommunityListEntry {
                permit: true,
                communities: Default::default(),
            }],
        });
        let mut stanza = RouteMapStanza::permit(10);
        stanza.matches = vec![
            MatchClause::IpAddressPrefixList(Vec::new()),
            MatchClause::Community(Vec::new()),
        ];
        stanza.sets = vec![
            SetClause::Community {
                communities: Vec::new(),
                additive: false,
            },
            SetClause::Community {
                communities: Vec::new(),
                additive: true,
            },
            SetClause::AsPathPrepend(Vec::new()),
        ];
        let mut map = RouteMap::new("m");
        map.stanzas.push(stanza);
        cfg.route_maps.push(map);
        assert_eq!(
            print(&cfg),
            "ip community-list standard cl permit \n!\nroute-map m permit 10\n \
             match ip address prefix-list \n match community \n set community \n \
             set community  additive\n set as-path prepend \n!\n"
        );
    }

    #[test]
    fn dotted_prints_what_ipv4_display_prints() {
        let mut bits = 0x9E37_79B9u32;
        for fixed in [0, u32::MAX, 0x0A00_6409, 0x0114_03C7, 0x6400_0A01] {
            let a = Ipv4Addr::from(fixed);
            assert_eq!(Dotted(a).to_string(), a.to_string());
        }
        for _ in 0..4096 {
            bits = bits.wrapping_mul(0x0019_660D).wrapping_add(0x3C6E_F35F);
            let a = Ipv4Addr::from(bits);
            assert_eq!(Dotted(a).to_string(), a.to_string());
        }
    }

    #[test]
    fn capacity_bounds_the_printed_length() {
        let (cfg, _) = parse(SAMPLE);
        let printed = print(&cfg);
        assert!(capacity(&cfg) >= printed.len());
        assert!(capacity(&cfg) < 2 * printed.len(), "{}", capacity(&cfg));
    }

    #[test]
    fn additive_keyword_round_trips() {
        let input = "route-map m permit 10\n set community 100:1 additive\n";
        let (cfg, _) = parse(input);
        let printed = print(&cfg);
        assert!(printed.contains("set community 100:1 additive"));
        let input2 = "route-map m permit 10\n set community 100:1\n";
        let (cfg2, _) = parse(input2);
        assert!(!print(&cfg2).contains("additive"));
    }
}
