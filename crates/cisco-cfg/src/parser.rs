//! Tolerant recursive parser for the IOS subset.
//!
//! The parser is a mode machine over [`crate::lexer::ConfigLine`]s: block
//! commands (`interface`, `router bgp`, `router ospf`, `route-map`) switch
//! modes; other lines are interpreted in the current mode. A `!` comment
//! line switches nothing, so a block continues past it, as in IOS.
//! Anything unrecognized, misplaced, or malformed becomes a
//! [`ParseWarning`] — the config as a whole always parses, exactly like
//! Batfish's front end, so the semantic verifiers can still run on the
//! recognizable parts.
//!
//! Lines and words are borrowed from the input and keywords are matched
//! in place (a word is lower-cased into a fresh string only when it has
//! upper-case letters), so parsing allocates the strings the AST and the
//! warnings keep and little else.

use crate::ast::*;
use crate::lexer::{lex, ConfigLine};
use crate::warning::{ParseWarning, WarningKind};
use net_model::{
    Asn, Community, CommunityListEntry, InterfaceAddress, InterfaceName, NetModelError, Prefix,
    PrefixPattern, Protocol,
};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Parser mode: which block the cursor is inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Global,
    /// Index into `cfg.interfaces`.
    Interface(usize),
    RouterBgp,
    RouterOspf,
    /// Index into `cfg.route_maps`, then into that map's `stanzas`. Only a
    /// `route-map` header adds a stanza, and it leaves this mode, so the
    /// indices hold until the mode changes.
    RouteMap(usize, usize),
}

/// Parses an IOS configuration, returning the AST and all warnings.
pub fn parse(input: &str) -> (CiscoConfig, Vec<ParseWarning>) {
    let mut p = Parser {
        cfg: CiscoConfig::default(),
        warnings: Vec::new(),
        mode: Mode::Global,
    };
    for line in lex(input).lines() {
        p.line(&line);
    }
    (p.cfg, p.warnings)
}

struct Parser {
    cfg: CiscoConfig,
    warnings: Vec<ParseWarning>,
    mode: Mode,
}

/// EXEC/CLI keywords that must not appear in a stored configuration —
/// the ones the paper lists GPT-4 sprinkling into its output.
const CLI_KEYWORDS: &[&[&str]] = &[
    &["exit"],
    &["end"],
    &["write"],
    &["configure", "terminal"],
    &["conf", "t"],
    &["enable"],
    &["ip", "routing"],
    &["no", "ip", "routing"],
];

impl Parser {
    fn warn(&mut self, line: &ConfigLine, kind: WarningKind, message: impl Into<String>) {
        self.warnings
            .push(ParseWarning::new(line.number, line.text, message, kind));
    }

    fn line(&mut self, line: &ConfigLine) {
        // CLI keywords are wrong in any mode (the paper's IIP forbids
        // them); flag and drop.
        for kw in CLI_KEYWORDS {
            if kw.len() == line.words.len() && line.starts_with(kw) {
                self.warn(
                    line,
                    WarningKind::CliKeyword,
                    format!(
                        "'{}' is a CLI/EXEC command, not a configuration statement; \
                         remove it from the config file",
                        line.text
                    ),
                );
                return;
            }
        }
        // Top-level commands switch mode regardless of current mode.
        match &*line.keyword() {
            "hostname" => {
                self.mode = Mode::Global;
                match line.word(1) {
                    Some(name) => self.cfg.hostname = Some(name.to_string()),
                    None => self.warn(line, WarningKind::BadValue, "hostname requires a name"),
                }
                return;
            }
            "interface" => {
                let Some(name) = line.word(1) else {
                    self.warn(line, WarningKind::BadValue, "interface requires a name");
                    self.mode = Mode::Global;
                    return;
                };
                // Re-entering an existing interface block appends to it.
                let idx = self
                    .cfg
                    .interfaces
                    .iter()
                    .position(|i| i.name.as_str() == name)
                    .unwrap_or_else(|| {
                        self.cfg.interfaces.push(CiscoInterface::named(name));
                        self.cfg.interfaces.len() - 1
                    });
                self.mode = Mode::Interface(idx);
                return;
            }
            "router" => {
                self.router_header(line);
                return;
            }
            "route-map" => {
                self.route_map_header(line);
                return;
            }
            "ip" => {
                // `ip` is top-level for prefix-list/community-list/as-path,
                // but a sub-command inside interface mode (`ip address`,
                // `ip ospf cost`). Disambiguate on the second word.
                match line.word(1) {
                    Some("prefix-list") => {
                        self.mode = Mode::Global;
                        self.ip_prefix_list(line);
                        return;
                    }
                    Some("community-list") => {
                        self.mode = Mode::Global;
                        self.ip_community_list(line);
                        return;
                    }
                    Some("as-path") => {
                        self.mode = Mode::Global;
                        self.ip_as_path_list(line);
                        return;
                    }
                    _ => {}
                }
            }
            _ => {}
        }
        // Mode-specific interpretation.
        match self.mode {
            Mode::Global => self.global_line(line),
            Mode::Interface(idx) => self.interface_line(line, idx),
            Mode::RouterBgp => self.bgp_line(line),
            Mode::RouterOspf => self.ospf_line(line),
            Mode::RouteMap(map, stanza) => self.route_map_line(line, map, stanza),
        }
    }

    fn global_line(&mut self, line: &ConfigLine) {
        match &*line.keyword() {
            // The paper's misplaced-command case: neighbor/network belong
            // under `router bgp`.
            "neighbor" => self.warn(
                line,
                WarningKind::MisplacedCommand,
                "'neighbor' commands must be placed inside the 'router bgp' block",
            ),
            "network" => self.warn(
                line,
                WarningKind::MisplacedCommand,
                "'network' commands must be placed inside a 'router bgp' or 'router ospf' block",
            ),
            "match" | "set" => self.warn(
                line,
                WarningKind::MisplacedCommand,
                "'match'/'set' clauses must be placed inside a 'route-map' stanza",
            ),
            _ => {
                self.cfg.extra_lines.push(line.text.to_string());
                self.warn(
                    line,
                    WarningKind::Unrecognized,
                    format!("unrecognized configuration line: '{}'", line.text),
                );
            }
        }
    }

    fn interface_line(&mut self, line: &ConfigLine, idx: usize) {
        if line.starts_with(&["ip", "address"]) {
            let parsed = match (line.word(2), line.word(3)) {
                (Some(a), Some(m)) => address_with_mask(a, m),
                (Some(a), None) => InterfaceAddress::parse(a),
                _ => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "ip address requires an address and mask",
                    );
                    return;
                }
            };
            match parsed {
                Ok(addr) => self.cfg.interfaces[idx].address = Some(addr),
                Err(e) => self.warn(
                    line,
                    WarningKind::BadValue,
                    format!("invalid ip address: {e}"),
                ),
            }
            return;
        }
        if line.starts_with(&["ip", "ospf", "cost"]) {
            match line.word(3).and_then(|w| w.parse::<u32>().ok()) {
                Some(c) => self.cfg.interfaces[idx].ospf_cost = Some(c),
                None => self.warn(
                    line,
                    WarningKind::BadValue,
                    "ip ospf cost requires a number",
                ),
            }
            return;
        }
        match &*line.keyword() {
            "shutdown" => self.cfg.interfaces[idx].shutdown = true,
            "no" if line.starts_with(&["no", "shutdown"]) => {
                self.cfg.interfaces[idx].shutdown = false
            }
            "description" => self.cfg.interfaces[idx].description = Some(line.rest(1)),
            "neighbor" => self.warn(
                line,
                WarningKind::MisplacedCommand,
                "'neighbor' commands must be placed inside the 'router bgp' block",
            ),
            _ => self.warn(
                line,
                WarningKind::Unrecognized,
                format!("unrecognized interface sub-command: '{}'", line.text),
            ),
        }
    }

    fn router_header(&mut self, line: &ConfigLine) {
        match line.word_lower(1).as_deref() {
            Some("bgp") => match line.word(2).and_then(|w| w.parse::<u32>().ok()) {
                Some(asn) => {
                    if let Some(existing) = &self.cfg.bgp {
                        if existing.asn != Asn(asn) {
                            self.warn(
                                line,
                                WarningKind::BadValue,
                                format!(
                                    "router bgp {asn} conflicts with earlier router bgp {}",
                                    existing.asn
                                ),
                            );
                        }
                    } else {
                        self.cfg.bgp = Some(BgpProcess::new(Asn(asn)));
                    }
                    self.mode = Mode::RouterBgp;
                }
                None => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "router bgp requires an AS number",
                    );
                    self.mode = Mode::Global;
                }
            },
            Some("ospf") => match line.word(2).and_then(|w| w.parse::<u32>().ok()) {
                Some(pid) => {
                    if self.cfg.ospf.is_none() {
                        self.cfg.ospf = Some(OspfProcess::new(pid));
                    }
                    self.mode = Mode::RouterOspf;
                }
                None => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "router ospf requires a process id",
                    );
                    self.mode = Mode::Global;
                }
            },
            other => {
                self.warn(
                    line,
                    WarningKind::Unsupported,
                    format!("unsupported routing process: {other:?}"),
                );
                self.mode = Mode::Global;
            }
        }
    }

    fn bgp_line(&mut self, line: &ConfigLine) {
        let bgp = self.cfg.bgp.as_mut().expect("in RouterBgp mode");
        if line.starts_with(&["bgp", "router-id"]) {
            match line.word(2).and_then(|w| w.parse::<Ipv4Addr>().ok()) {
                Some(id) => bgp.router_id = Some(id),
                None => self.warn(
                    line,
                    WarningKind::BadValue,
                    "bgp router-id requires an address",
                ),
            }
            return;
        }
        let keyword = line.keyword();
        if keyword == "neighbor" {
            self.bgp_neighbor_line(line);
            return;
        }
        if keyword == "network" {
            let prefix = match (line.word(1), line.word(2), line.word(3)) {
                (Some(a), Some(kw), Some(m)) if kw.eq_ignore_ascii_case("mask") => {
                    address_with_mask(a, m).map(|ia| ia.subnet())
                }
                (Some(a), None, _) if a.contains('/') => a.parse::<Prefix>(),
                (Some(a), None, _) => {
                    // Classful inference for a bare address.
                    a.parse::<Ipv4Addr>()
                        .map_err(|_| NetModelError::InvalidPrefix(a.to_string()))
                        .and_then(|addr| {
                            let len = classful_len(addr);
                            Prefix::new(addr, len)
                        })
                }
                _ => {
                    self.warn(line, WarningKind::BadValue, "malformed network statement");
                    return;
                }
            };
            match prefix {
                Ok(p) => bgp.networks.push(NetworkStatement { prefix: p }),
                Err(e) => self.warn(line, WarningKind::BadValue, format!("invalid network: {e}")),
            }
            return;
        }
        if keyword == "redistribute" {
            let Some(proto) = line
                .word_lower(1)
                .as_deref()
                .and_then(Protocol::from_keyword)
            else {
                self.warn(
                    line,
                    WarningKind::BadValue,
                    "redistribute requires a protocol",
                );
                return;
            };
            let route_map =
                if line.word(2).map(|w| w.eq_ignore_ascii_case("route-map")) == Some(true) {
                    match line.word(3) {
                        Some(n) => Some(n.to_string()),
                        None => {
                            self.warn(
                                line,
                                WarningKind::BadValue,
                                "redistribute route-map requires a name",
                            );
                            return;
                        }
                    }
                } else {
                    None
                };
            bgp.redistribute.push(Redistribution {
                protocol: proto,
                route_map,
            });
            return;
        }
        self.warn(
            line,
            WarningKind::Unrecognized,
            format!("unrecognized 'router bgp' sub-command: '{}'", line.text),
        );
    }

    fn bgp_neighbor_line(&mut self, line: &ConfigLine) {
        let Some(addr) = line.word(1).and_then(|w| w.parse::<Ipv4Addr>().ok()) else {
            self.warn(
                line,
                WarningKind::BadValue,
                "neighbor requires an IPv4 address",
            );
            return;
        };
        let bgp = self.cfg.bgp.as_mut().expect("in RouterBgp mode");
        match line.word_lower(2).as_deref() {
            Some("remote-as") => match line.word(3).and_then(|w| w.parse::<u32>().ok()) {
                Some(asn) => bgp.neighbor_mut(addr).remote_as = Some(Asn(asn)),
                None => self.warn(
                    line,
                    WarningKind::BadValue,
                    "remote-as requires an AS number",
                ),
            },
            Some("route-map") => match (line.word(3), line.word_lower(4).as_deref()) {
                (Some(n), Some("in")) => bgp.neighbor_mut(addr).route_map_in = Some(n.to_string()),
                (Some(n), Some("out")) => {
                    bgp.neighbor_mut(addr).route_map_out = Some(n.to_string())
                }
                _ => self.warn(
                    line,
                    WarningKind::BadValue,
                    "neighbor route-map requires a name and a direction (in|out)",
                ),
            },
            Some("description") => {
                bgp.neighbor_mut(addr).description = Some(line.rest(3));
            }
            Some("send-community") => {
                bgp.neighbor_mut(addr).send_community = true;
            }
            Some("next-hop-self") => {
                bgp.neighbor_mut(addr).next_hop_self = true;
            }
            Some(other) => self.warn(
                line,
                WarningKind::Unrecognized,
                format!("unrecognized neighbor attribute '{other}'"),
            ),
            None => {
                // A bare `neighbor A.B.C.D` implicitly declares the peer.
                bgp.neighbor_mut(addr);
            }
        }
    }

    fn ospf_line(&mut self, line: &ConfigLine) {
        let ospf = self.cfg.ospf.as_mut().expect("in RouterOspf mode");
        match &*line.keyword() {
            "router-id" => match line.word(1).and_then(|w| w.parse::<Ipv4Addr>().ok()) {
                Some(id) => ospf.router_id = Some(id),
                None => self.warn(line, WarningKind::BadValue, "router-id requires an address"),
            },
            "network" => {
                let (addr, wild, area) = (
                    line.word(1).and_then(|w| w.parse::<Ipv4Addr>().ok()),
                    line.word(2).and_then(|w| w.parse::<Ipv4Addr>().ok()),
                    line.word(4).and_then(|w| w.parse::<u32>().ok()),
                );
                let area_kw_ok = line.word(3).map(|w| w.eq_ignore_ascii_case("area")) == Some(true);
                match (addr, wild, area_kw_ok, area) {
                    (Some(a), Some(w), true, Some(ar)) => {
                        let mask = !u32::from(w);
                        let len = mask.count_ones() as u8;
                        if Prefix::mask(len) != mask {
                            self.warn(line, WarningKind::BadValue, "non-contiguous wildcard mask");
                            return;
                        }
                        match Prefix::new(a, len) {
                            Ok(p) => ospf.networks.push(OspfNetwork {
                                prefix: p,
                                area: ar,
                            }),
                            Err(e) => self.warn(
                                line,
                                WarningKind::BadValue,
                                format!("invalid network: {e}"),
                            ),
                        }
                    }
                    _ => self.warn(
                        line,
                        WarningKind::BadValue,
                        "expected: network <addr> <wildcard> area <n>",
                    ),
                }
            }
            "passive-interface" => match line.word(1) {
                Some(w) if w.eq_ignore_ascii_case("default") => ospf.passive_default = true,
                Some(name) => ospf.passive_interfaces.push(InterfaceName::new(name)),
                None => self.warn(
                    line,
                    WarningKind::BadValue,
                    "passive-interface requires a name",
                ),
            },
            "no" if line.starts_with(&["no", "passive-interface"]) => match line.word(2) {
                Some(name) => ospf.active_interfaces.push(InterfaceName::new(name)),
                None => self.warn(
                    line,
                    WarningKind::BadValue,
                    "no passive-interface requires a name",
                ),
            },
            "neighbor" => self.warn(
                line,
                WarningKind::MisplacedCommand,
                "'neighbor' commands must be placed inside the 'router bgp' block",
            ),
            _ => self.warn(
                line,
                WarningKind::Unrecognized,
                format!("unrecognized 'router ospf' sub-command: '{}'", line.text),
            ),
        }
    }

    fn ip_prefix_list(&mut self, line: &ConfigLine) {
        // ip prefix-list NAME [seq N] permit|deny P/L [ge g] [le l]
        let Some(name) = line.word(2) else {
            self.warn(
                line,
                WarningKind::BadValue,
                "ip prefix-list requires a name",
            );
            return;
        };
        let mut i = 3;
        let mut seq = None;
        if line.word(i).map(|w| w.eq_ignore_ascii_case("seq")) == Some(true) {
            seq = line.word(i + 1).and_then(|w| w.parse::<u32>().ok());
            if seq.is_none() {
                self.warn(line, WarningKind::BadValue, "seq requires a number");
                return;
            }
            i += 2;
        }
        let permit = match line.word_lower(i).as_deref() {
            Some("permit") => true,
            Some("deny") => false,
            _ => {
                self.warn(line, WarningKind::BadValue, "expected permit or deny");
                return;
            }
        };
        i += 1;
        let Some(pfx_text) = line.word(i) else {
            self.warn(
                line,
                WarningKind::BadValue,
                "prefix-list entry requires a prefix",
            );
            return;
        };
        // The `1.2.3.0/24-32` spelling is the invalid form GPT-4 invents on
        // the Juniper side; flag it specifically if it shows up here too.
        if pfx_text.matches('/').count() == 1
            && pfx_text.split('/').nth(1).map(|t| t.contains('-')) == Some(true)
        {
            self.warn(
                line,
                WarningKind::BadPrefixListSyntax,
                format!("'{pfx_text}' is not valid prefix-list syntax; use 'ge'/'le' bounds"),
            );
            return;
        }
        let Ok(prefix) = pfx_text.parse::<Prefix>() else {
            self.warn(
                line,
                WarningKind::BadValue,
                format!("invalid prefix '{pfx_text}'"),
            );
            return;
        };
        i += 1;
        let mut ge = None;
        let mut le = None;
        while let Some(w) = line.word_lower(i) {
            match &*w {
                "ge" => {
                    ge = line.word(i + 1).and_then(|x| x.parse::<u8>().ok());
                    if ge.is_none() {
                        self.warn(line, WarningKind::BadValue, "ge requires a length");
                        return;
                    }
                    i += 2;
                }
                "le" => {
                    le = line.word(i + 1).and_then(|x| x.parse::<u8>().ok());
                    if le.is_none() {
                        self.warn(line, WarningKind::BadValue, "le requires a length");
                        return;
                    }
                    i += 2;
                }
                other => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        format!("unexpected token '{other}' in prefix-list entry"),
                    );
                    return;
                }
            }
        }
        let pattern = match PrefixPattern::with_bounds(prefix, ge, le) {
            Ok(p) => p,
            Err(e) => {
                self.warn(line, WarningKind::BadValue, format!("invalid bounds: {e}"));
                return;
            }
        };
        let list = if let Some(pos) = self.cfg.prefix_lists.iter().position(|p| p.name == name) {
            &mut self.cfg.prefix_lists[pos]
        } else {
            self.cfg.prefix_lists.push(PrefixList {
                name: name.to_string(),
                entries: Vec::new(),
            });
            self.cfg.prefix_lists.last_mut().expect("just pushed")
        };
        // Entries stay sorted by seq; an equal seq goes after the ones
        // already there.
        let seq = seq.unwrap_or_else(|| list.entries.last().map(|e| e.seq + 5).unwrap_or(5));
        let at = list.entries.partition_point(|e| e.seq <= seq);
        list.entries.insert(
            at,
            PrefixListEntry {
                seq,
                permit,
                pattern,
            },
        );
    }

    fn ip_community_list(&mut self, line: &ConfigLine) {
        // ip community-list [standard|expanded] NAME permit|deny COMM...
        let mut i = 2;
        let mut standard = true;
        match line.word_lower(i).as_deref() {
            Some("standard") => i += 1,
            Some("expanded") => {
                standard = false;
                i += 1;
            }
            _ => {}
        }
        let Some(name) = line.word(i) else {
            self.warn(
                line,
                WarningKind::BadValue,
                "ip community-list requires a name",
            );
            return;
        };
        i += 1;
        let permit = match line.word_lower(i).as_deref() {
            Some("permit") => true,
            Some("deny") => false,
            _ => {
                self.warn(line, WarningKind::BadValue, "expected permit or deny");
                return;
            }
        };
        i += 1;
        if line.words.len() <= i {
            self.warn(
                line,
                WarningKind::BadValue,
                "community-list entry requires a community",
            );
            return;
        }
        let mut communities = BTreeSet::new();
        for w in &line.words[i..] {
            match w.parse::<Community>() {
                Ok(c) => {
                    communities.insert(c);
                }
                Err(_) if standard => {
                    // Table 3's example: a regex (`.+`) in a *standard* list.
                    self.warn(
                        line,
                        WarningKind::CommunityListRegex,
                        format!(
                            "'{w}' is not a community value; standard community lists \
                             take high:low values, not regular expressions"
                        ),
                    );
                    return;
                }
                Err(_) => {
                    // Expanded lists take regexes; we record them unsupported.
                    self.warn(
                        line,
                        WarningKind::Unsupported,
                        "expanded community-list regexes are not supported",
                    );
                    return;
                }
            }
        }
        let list = if let Some(pos) = self.cfg.community_lists.iter().position(|c| c.name == name) {
            &mut self.cfg.community_lists[pos]
        } else {
            self.cfg.community_lists.push(CommunityList {
                name: name.to_string(),
                entries: Vec::new(),
            });
            self.cfg.community_lists.last_mut().expect("just pushed")
        };
        list.entries.push(CommunityListEntry {
            permit,
            communities,
        });
    }

    fn ip_as_path_list(&mut self, line: &ConfigLine) {
        // ip as-path access-list N permit|deny REGEX
        if line.word(2).map(|w| w.eq_ignore_ascii_case("access-list")) != Some(true) {
            self.warn(
                line,
                WarningKind::BadValue,
                "expected 'ip as-path access-list'",
            );
            return;
        }
        let Some(name) = line.word(3) else {
            self.warn(
                line,
                WarningKind::BadValue,
                "as-path access-list requires a number",
            );
            return;
        };
        let permit = match line.word_lower(4).as_deref() {
            Some("permit") => true,
            Some("deny") => false,
            _ => {
                self.warn(line, WarningKind::BadValue, "expected permit or deny");
                return;
            }
        };
        let regex = line.rest(5);
        if regex.is_empty() {
            self.warn(
                line,
                WarningKind::BadValue,
                "as-path access-list requires a regex",
            );
            return;
        }
        let list = if let Some(pos) = self.cfg.as_path_lists.iter().position(|l| l.name == name) {
            &mut self.cfg.as_path_lists[pos]
        } else {
            self.cfg.as_path_lists.push(AsPathList {
                name: name.to_string(),
                entries: Vec::new(),
            });
            self.cfg.as_path_lists.last_mut().expect("just pushed")
        };
        list.entries.push((permit, regex));
    }

    fn route_map_header(&mut self, line: &ConfigLine) {
        // route-map NAME permit|deny SEQ
        let Some(name) = line.word(1) else {
            self.warn(line, WarningKind::BadValue, "route-map requires a name");
            self.mode = Mode::Global;
            return;
        };
        let permit = match line.word_lower(2).as_deref() {
            Some("permit") => true,
            Some("deny") => false,
            _ => {
                self.warn(
                    line,
                    WarningKind::BadValue,
                    "route-map requires permit or deny",
                );
                self.mode = Mode::Global;
                return;
            }
        };
        let Some(seq) = line.word(3).and_then(|w| w.parse::<u32>().ok()) else {
            self.warn(
                line,
                WarningKind::BadValue,
                "route-map requires a sequence number",
            );
            self.mode = Mode::Global;
            return;
        };
        let map = match self.cfg.route_maps.iter().position(|m| m.name == name) {
            Some(pos) => pos,
            None => {
                self.cfg.route_maps.push(RouteMap::new(name));
                self.cfg.route_maps.len() - 1
            }
        };
        // Stanzas stay sorted by seq, one per seq; re-entering a stanza
        // appends to it.
        let stanzas = &mut self.cfg.route_maps[map].stanzas;
        let stanza = match stanzas.binary_search_by_key(&seq, |s| s.seq) {
            Ok(at) => at,
            Err(at) => {
                stanzas.insert(
                    at,
                    RouteMapStanza {
                        seq,
                        permit,
                        matches: Vec::new(),
                        sets: Vec::new(),
                    },
                );
                at
            }
        };
        self.mode = Mode::RouteMap(map, stanza);
    }

    fn route_map_line(&mut self, line: &ConfigLine, map: usize, stanza: usize) {
        // Collect the clause first to avoid borrowing issues with warn().
        enum Parsed {
            Match(MatchClause),
            Set(SetClause),
        }
        let parsed: Option<Parsed> = if line.starts_with(&["match", "ip", "address", "prefix-list"])
        {
            let lists = &line.words[4..];
            if lists.is_empty() {
                self.warn(
                    line,
                    WarningKind::BadValue,
                    "prefix-list match requires a list name",
                );
                return;
            }
            Some(Parsed::Match(MatchClause::IpAddressPrefixList(owned(
                lists,
            ))))
        } else if line.starts_with(&["match", "ip", "address"]) {
            self.warn(
                line,
                WarningKind::Unsupported,
                "'match ip address <acl>' (access-list match) is not supported; use prefix-list",
            );
            return;
        } else if line.starts_with(&["match", "community"]) {
            let args = &line.words[2..];
            if args.is_empty() {
                self.warn(
                    line,
                    WarningKind::BadValue,
                    "match community requires a list reference",
                );
                return;
            }
            // The Section 4.2 trap: a literal `high:low` here is invalid —
            // IOS wants a community-list name/number.
            if let Some(lit) = args.iter().find(|a| a.contains(':')) {
                self.warn(
                    line,
                    WarningKind::MatchCommunityLiteral,
                    format!(
                        "'match community {lit}' is invalid: declare an \
                         'ip community-list' containing {lit} and match the list instead"
                    ),
                );
                return;
            }
            Some(Parsed::Match(MatchClause::Community(owned(args))))
        } else if line.starts_with(&["match", "as-path"]) {
            match line.word(2) {
                Some(n) => Some(Parsed::Match(MatchClause::AsPath(n.to_string()))),
                None => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "match as-path requires a list number",
                    );
                    return;
                }
            }
        } else if line.starts_with(&["match", "source-protocol"]) {
            match line
                .word_lower(2)
                .as_deref()
                .and_then(Protocol::from_keyword)
            {
                Some(p) => Some(Parsed::Match(MatchClause::SourceProtocol(p))),
                None => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "match source-protocol requires a protocol",
                    );
                    return;
                }
            }
        } else if line.starts_with(&["set", "community"]) {
            let mut communities = Vec::new();
            let mut additive = false;
            for w in &line.words[2..] {
                if w.eq_ignore_ascii_case("additive") {
                    additive = true;
                } else if let Ok(c) = w.parse::<Community>() {
                    communities.push(c);
                } else {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        format!("'{w}' is not a community value"),
                    );
                    return;
                }
            }
            if communities.is_empty() {
                self.warn(
                    line,
                    WarningKind::BadValue,
                    "set community requires at least one community",
                );
                return;
            }
            Some(Parsed::Set(SetClause::Community {
                communities,
                additive,
            }))
        } else if line.starts_with(&["set", "metric"]) {
            match line.word(2).and_then(|w| w.parse::<u32>().ok()) {
                Some(m) => Some(Parsed::Set(SetClause::Metric(m))),
                None => {
                    self.warn(line, WarningKind::BadValue, "set metric requires a number");
                    return;
                }
            }
        } else if line.starts_with(&["set", "local-preference"]) {
            match line.word(2).and_then(|w| w.parse::<u32>().ok()) {
                Some(m) => Some(Parsed::Set(SetClause::LocalPreference(m))),
                None => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "set local-preference requires a number",
                    );
                    return;
                }
            }
        } else if line.starts_with(&["set", "as-path", "prepend"]) {
            let asns: Result<Vec<Asn>, _> =
                line.words[3..].iter().map(|w| w.parse::<Asn>()).collect();
            match asns {
                Ok(v) if !v.is_empty() => Some(Parsed::Set(SetClause::AsPathPrepend(v))),
                _ => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "set as-path prepend requires AS numbers",
                    );
                    return;
                }
            }
        } else if line.starts_with(&["set", "ip", "next-hop"]) {
            match line.word(3).and_then(|w| w.parse::<Ipv4Addr>().ok()) {
                Some(a) => Some(Parsed::Set(SetClause::NextHop(a))),
                None => {
                    self.warn(
                        line,
                        WarningKind::BadValue,
                        "set ip next-hop requires an address",
                    );
                    return;
                }
            }
        } else if line.starts_with(&["set", "weight"]) {
            match line.word(2).and_then(|w| w.parse::<u32>().ok()) {
                Some(wt) => Some(Parsed::Set(SetClause::Weight(wt))),
                None => {
                    self.warn(line, WarningKind::BadValue, "set weight requires a number");
                    return;
                }
            }
        } else {
            match &*line.keyword() {
                keyword @ ("neighbor" | "network") => {
                    self.warn(
                        line,
                        WarningKind::MisplacedCommand,
                        format!(
                            "'{keyword}' must be placed inside the 'router bgp' block, \
                             not in a route-map"
                        ),
                    );
                }
                _ => self.warn(
                    line,
                    WarningKind::Unrecognized,
                    format!("unrecognized route-map clause: '{}'", line.text),
                ),
            }
            return;
        };
        let stanza = &mut self.cfg.route_maps[map].stanzas[stanza];
        match parsed {
            Some(Parsed::Match(m)) => stanza.matches.push(m),
            Some(Parsed::Set(s)) => stanza.sets.push(s),
            None => {}
        }
    }
}

/// `InterfaceAddress::parse` of `"{addr} {mask}"` without building that
/// string: the two words of an `ip address` or `network ... mask` line.
/// A pair that does not parse is joined and handed to
/// `InterfaceAddress::parse`, so its error reads as it always has.
fn address_with_mask(addr: &str, mask: &str) -> Result<InterfaceAddress, NetModelError> {
    if let (Ok(a), Ok(m)) = (addr.parse::<Ipv4Addr>(), mask.parse::<Ipv4Addr>()) {
        let bits = u32::from(m);
        let len = bits.count_ones() as u8;
        if Prefix::mask(len) == bits {
            return InterfaceAddress::new(a, len);
        }
    }
    InterfaceAddress::parse(&format!("{addr} {mask}"))
}

/// The words an AST clause keeps.
fn owned(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

/// Classful prefix length for a bare `network` statement.
fn classful_len(addr: Ipv4Addr) -> u8 {
    let first = addr.octets()[0];
    if first < 128 {
        8
    } else if first < 192 {
        16
    } else {
        24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(input: &str) -> CiscoConfig {
        let (cfg, warnings) = parse(input);
        assert!(warnings.is_empty(), "unexpected warnings: {warnings:?}");
        cfg
    }

    const SAMPLE: &str = "\
hostname border1
!
interface Ethernet0/1
 ip address 10.0.1.1 255.255.255.0
 ip ospf cost 10
!
interface Loopback0
 ip address 1.2.3.4 255.255.255.255
 ip ospf cost 1
!
router ospf 1
 router-id 1.2.3.4
 network 10.0.1.0 0.0.0.255 area 0
 passive-interface Loopback0
!
router bgp 100
 bgp router-id 1.2.3.4
 network 1.2.3.0 mask 255.255.255.0
 neighbor 2.3.4.5 remote-as 200
 neighbor 2.3.4.5 route-map to_provider out
 neighbor 2.3.4.5 route-map from_provider in
 neighbor 2.3.4.5 send-community
 redistribute ospf route-map ospf_to_bgp
!
ip prefix-list our-networks seq 5 permit 1.2.3.0/24 ge 24
ip community-list standard no-export-ours permit 100:1
ip as-path access-list 1 permit ^$
!
route-map to_provider permit 10
 match ip address prefix-list our-networks
 set metric 50
 set community 100:1 additive
route-map to_provider deny 100
!
route-map from_provider permit 10
 set local-preference 120
";

    #[test]
    fn parses_full_sample_without_warnings() {
        let cfg = ok(SAMPLE);
        assert_eq!(cfg.hostname.as_deref(), Some("border1"));
        assert_eq!(cfg.interfaces.len(), 2);
        assert_eq!(
            cfg.interface("Ethernet0/1")
                .unwrap()
                .address
                .unwrap()
                .to_string(),
            "10.0.1.1/24"
        );
        assert_eq!(cfg.interface("Ethernet0/1").unwrap().ospf_cost, Some(10));
        let bgp = cfg.bgp.as_ref().unwrap();
        assert_eq!(bgp.asn, Asn(100));
        assert_eq!(bgp.networks.len(), 1);
        assert_eq!(bgp.networks[0].prefix.to_string(), "1.2.3.0/24");
        let n = bgp.neighbor("2.3.4.5".parse().unwrap()).unwrap();
        assert_eq!(n.remote_as, Some(Asn(200)));
        assert_eq!(n.route_map_out.as_deref(), Some("to_provider"));
        assert_eq!(n.route_map_in.as_deref(), Some("from_provider"));
        assert!(n.send_community);
        assert_eq!(bgp.redistribute.len(), 1);
        assert_eq!(bgp.redistribute[0].protocol, Protocol::Ospf);
        assert_eq!(
            bgp.redistribute[0].route_map.as_deref(),
            Some("ospf_to_bgp")
        );
        let ospf = cfg.ospf.as_ref().unwrap();
        assert_eq!(ospf.networks.len(), 1);
        assert_eq!(ospf.networks[0].prefix.to_string(), "10.0.1.0/24");
        assert!(ospf.is_passive(&InterfaceName::from("Loopback0")));
        let pl = cfg.prefix_list("our-networks").unwrap();
        assert_eq!(pl.entries.len(), 1);
        assert_eq!(pl.entries[0].pattern.cisco_syntax(), "1.2.3.0/24 ge 24");
        let rm = cfg.route_map("to_provider").unwrap();
        assert_eq!(rm.stanzas.len(), 2);
        assert!(rm.stanzas[0].permit);
        assert!(!rm.stanzas[1].permit);
        assert_eq!(rm.stanzas[0].matches.len(), 1);
        assert_eq!(rm.stanzas[0].sets.len(), 2);
        assert_eq!(cfg.as_path_lists.len(), 1);
    }

    #[test]
    fn cli_keywords_are_flagged() {
        let (_, w) = parse("configure terminal\nhostname r1\nexit\nend\nwrite\n");
        let kinds: Vec<_> = w.iter().map(|x| x.kind).collect();
        assert_eq!(
            kinds,
            vec![
                WarningKind::CliKeyword,
                WarningKind::CliKeyword,
                WarningKind::CliKeyword,
                WarningKind::CliKeyword
            ]
        );
    }

    #[test]
    fn ip_routing_is_flagged_but_hostname_is_fine() {
        let (cfg, w) = parse("ip routing\nhostname r5\n");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::CliKeyword);
        assert_eq!(cfg.hostname.as_deref(), Some("r5"));
    }

    #[test]
    fn misplaced_neighbor_is_flagged() {
        let (_, w) = parse("neighbor 1.0.0.1 route-map FILTER in\n");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::MisplacedCommand);
        assert!(w[0].message.contains("router bgp"));
    }

    #[test]
    fn misplaced_neighbor_after_route_map_is_flagged() {
        // The paper's exact pathology: route-map defined, then neighbor
        // attachment *outside* the router bgp block.
        let input = "\
router bgp 1
 neighbor 2.0.0.2 remote-as 2
route-map ADD permit 10
 set community 100:1 additive
neighbor 2.0.0.2 route-map ADD in
";
        let (cfg, w) = parse(input);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::MisplacedCommand);
        // And the route-map attachment must NOT have taken effect.
        let n = cfg.bgp.unwrap();
        assert_eq!(n.neighbors[0].route_map_in, None);
    }

    #[test]
    fn match_community_literal_is_flagged() {
        let input = "\
route-map FILTER_ROUTES permit 10
 match community 100:1
";
        let (cfg, w) = parse(input);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::MatchCommunityLiteral);
        assert!(w[0].message.contains("community-list"));
        // The bogus clause is not recorded.
        assert!(cfg.route_map("FILTER_ROUTES").unwrap().stanzas[0]
            .matches
            .is_empty());
    }

    #[test]
    fn match_community_list_reference_is_ok() {
        let input = "\
ip community-list 1 permit 100:1
route-map FILTER_ROUTES permit 10
 match community 1
";
        let cfg = ok(input);
        assert_eq!(
            cfg.route_map("FILTER_ROUTES").unwrap().stanzas[0].matches,
            vec![MatchClause::Community(vec!["1".into()])]
        );
    }

    #[test]
    fn community_list_regex_is_flagged() {
        let (_, w) = parse("ip community-list standard COMM_LIST_R2_OUT permit .+\n");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::CommunityListRegex);
    }

    #[test]
    fn set_community_without_additive_parses_as_replace() {
        let input = "\
route-map ADD_COMMUNITY permit 10
 set community 100:1
";
        let cfg = ok(input);
        let s = &cfg.route_map("ADD_COMMUNITY").unwrap().stanzas[0];
        assert_eq!(
            s.sets,
            vec![SetClause::Community {
                communities: vec!["100:1".parse().unwrap()],
                additive: false
            }]
        );
    }

    #[test]
    fn network_forms() {
        let input = "\
router bgp 1
 network 1.0.0.0 mask 255.255.255.0
 network 2.0.0.0/16
 network 9.0.0.0
";
        let cfg = ok(input);
        let nets: Vec<String> = cfg
            .bgp
            .unwrap()
            .networks
            .iter()
            .map(|n| n.prefix.to_string())
            .collect();
        assert_eq!(nets, vec!["1.0.0.0/24", "2.0.0.0/16", "9.0.0.0/8"]);
    }

    #[test]
    fn prefix_list_dash_syntax_is_flagged() {
        let (_, w) = parse("ip prefix-list our-networks seq 5 permit 1.2.3.0/24-32\n");
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::BadPrefixListSyntax);
    }

    #[test]
    fn prefix_list_auto_seq() {
        let input = "\
ip prefix-list pl permit 1.0.0.0/8
ip prefix-list pl permit 2.0.0.0/8
";
        let cfg = ok(input);
        let pl = cfg.prefix_list("pl").unwrap();
        assert_eq!(pl.entries[0].seq, 5);
        assert_eq!(pl.entries[1].seq, 10);
    }

    #[test]
    fn unknown_lines_warn_but_parse_continues() {
        let input = "\
hostname r1
frobnicate the widget
router bgp 1
 neighbor 2.0.0.2 remote-as 2
";
        let (cfg, w) = parse(input);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].kind, WarningKind::Unrecognized);
        assert!(cfg.bgp.is_some());
        assert_eq!(cfg.extra_lines, vec!["frobnicate the widget"]);
    }

    #[test]
    fn reentering_interface_block_merges() {
        let input = "\
interface Ethernet0/1
 ip address 10.0.0.1/24
interface Ethernet0/1
 ip ospf cost 7
";
        let cfg = ok(input);
        assert_eq!(cfg.interfaces.len(), 1);
        let i = cfg.interface("Ethernet0/1").unwrap();
        assert!(i.address.is_some());
        assert_eq!(i.ospf_cost, Some(7));
    }

    #[test]
    fn shutdown_and_no_shutdown() {
        let cfg = ok("interface Ethernet0/0\n shutdown\n");
        assert!(cfg.interfaces[0].shutdown);
        let cfg = ok("interface Ethernet0/0\n shutdown\n no shutdown\n");
        assert!(!cfg.interfaces[0].shutdown);
    }

    #[test]
    fn ospf_passive_default_with_exceptions() {
        let input = "\
router ospf 1
 passive-interface default
 no passive-interface Ethernet0/1
";
        let cfg = ok(input);
        let o = cfg.ospf.unwrap();
        assert!(o.passive_default);
        assert!(o.is_passive(&InterfaceName::from("Ethernet0/9")));
        assert!(!o.is_passive(&InterfaceName::from("Ethernet0/1")));
    }

    #[test]
    fn bad_values_warn() {
        let cases = [
            "router bgp banana\n",
            "router ospf\n",
            "interface Ethernet0/0\n ip address 1.2.3.4\n", // missing mask & not CIDR
            "router bgp 1\n neighbor nonsense remote-as 2\n",
            "ip prefix-list x seq y permit 1.0.0.0/8\n",
            "route-map m permit ten\n",
        ];
        for c in cases {
            let (_, w) = parse(c);
            assert!(
                w.iter().any(|x| x.kind == WarningKind::BadValue),
                "expected BadValue for {c:?}, got {w:?}"
            );
        }
    }

    #[test]
    fn classful_inference() {
        assert_eq!(classful_len("10.0.0.0".parse().unwrap()), 8);
        assert_eq!(classful_len("172.16.0.0".parse().unwrap()), 16);
        assert_eq!(classful_len("192.168.0.0".parse().unwrap()), 24);
    }

    #[test]
    fn route_map_stanza_ordering_by_seq() {
        let input = "\
route-map m permit 20
 set metric 2
route-map m permit 10
 set metric 1
";
        let cfg = ok(input);
        let m = cfg.route_map("m").unwrap();
        assert_eq!(m.stanzas[0].seq, 10);
        assert_eq!(m.stanzas[1].seq, 20);
        assert_eq!(m.stanzas[0].sets, vec![SetClause::Metric(1)]);
    }

    #[test]
    fn separator_changes_no_mode() {
        // A `!` line is a comment, as in IOS: the `router bgp` block is
        // still open after it.
        let cfg = ok("router bgp 1\n!\nneighbor 1.1.1.1 remote-as 2\n");
        let bgp = cfg.bgp.unwrap();
        assert_eq!(bgp.neighbors.len(), 1);
        assert_eq!(bgp.neighbors[0].remote_as, Some(Asn(2)));
    }

    #[test]
    fn reentered_route_map_keeps_its_stanza_after_a_lower_seq() {
        // The `deny 10` header inserts a stanza ahead of seq 20; the
        // clauses after the re-entered `permit 20` header still go to 20.
        let input = "\
route-map m permit 20
 set metric 2
route-map m deny 10
 set metric 1
route-map m permit 20
 set weight 5
";
        let cfg = ok(input);
        let m = cfg.route_map("m").unwrap();
        assert_eq!(m.stanzas.len(), 2);
        assert_eq!(m.stanzas[0].sets, vec![SetClause::Metric(1)]);
        assert_eq!(
            m.stanzas[1].sets,
            vec![SetClause::Metric(2), SetClause::Weight(5)]
        );
    }

    #[test]
    fn prefix_list_equal_seq_keeps_source_order() {
        let input = "\
ip prefix-list p seq 10 permit 1.0.0.0/8
ip prefix-list p seq 10 deny 2.0.0.0/8
ip prefix-list p seq 5 permit 3.0.0.0/8
ip prefix-list p permit 4.0.0.0/8
";
        let cfg = ok(input);
        let entries = &cfg.prefix_list("p").unwrap().entries;
        let got: Vec<(u32, bool)> = entries.iter().map(|e| (e.seq, e.permit)).collect();
        assert_eq!(got, vec![(5, true), (10, true), (10, false), (15, true)]);
    }

    #[test]
    fn upper_case_keywords_parse_and_echo_lower_case() {
        let (cfg, w) =
            parse("ROUTER BGP 7\n NEIGHBOR 2.2.2.2 REMOTE-AS 8\n Neighbor 2.2.2.2 Frob\n");
        assert_eq!(cfg.bgp.unwrap().neighbors[0].remote_as, Some(Asn(8)));
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].message, "unrecognized neighbor attribute 'frob'");
        assert_eq!(w[0].text, "Neighbor 2.2.2.2 Frob");
    }

    #[test]
    fn malformed_address_errors_name_the_joined_words() {
        let (cfg, w) = parse("interface e0\n ip address 10.0.0.1/24 255.255.255.0\n ip address 10.0.0.1 255.0.255.0\n ip address 10.0.0.1 255.255.255.0\n");
        assert_eq!(
            cfg.interfaces[0].address,
            Some(InterfaceAddress::parse("10.0.0.1/24").unwrap())
        );
        let messages: Vec<&str> = w.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(
            messages,
            vec![
                format!(
                    "invalid ip address: {}",
                    InterfaceAddress::parse("10.0.0.1/24 255.255.255.0").unwrap_err()
                ),
                format!(
                    "invalid ip address: {}",
                    InterfaceAddress::parse("10.0.0.1 255.0.255.0").unwrap_err()
                ),
            ]
        );
    }

    #[test]
    fn warnings_carry_line_numbers() {
        let (_, w) = parse("hostname r1\nexit\n");
        assert_eq!(w[0].line, 2);
        assert_eq!(w[0].text, "exit");
    }

    #[test]
    fn as_path_prepend_and_next_hop() {
        let input = "\
route-map m permit 10
 set as-path prepend 100 100 100
 set ip next-hop 10.0.0.9
 set weight 200
";
        let cfg = ok(input);
        let s = &cfg.route_map("m").unwrap().stanzas[0];
        assert_eq!(s.sets.len(), 3);
        assert!(matches!(&s.sets[0], SetClause::AsPathPrepend(v) if v.len() == 3));
        assert!(matches!(&s.sets[1], SetClause::NextHop(a) if a.to_string() == "10.0.0.9"));
        assert!(matches!(&s.sets[2], SetClause::Weight(200)));
    }

    #[test]
    fn match_source_protocol() {
        let input = "\
route-map redist permit 10
 match source-protocol bgp
";
        let cfg = ok(input);
        assert_eq!(
            cfg.route_map("redist").unwrap().stanzas[0].matches,
            vec![MatchClause::SourceProtocol(Protocol::Bgp)]
        );
    }
}
