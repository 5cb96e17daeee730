//! Pins the Cisco front end's exact output on a corpus of every config
//! shape the system produces: the `(ast, warnings)` of `cisco_cfg::parse`
//! and the text of `cisco_cfg::print` for each input, folded into one
//! fx hash. A change to the lexer, the parser or the printer that moves a
//! warning's text or line number, a field of the AST or a byte of the
//! printed text moves the digest.
//!
//! The corpus: the border config, the reference texts of the
//! `as-graph-512` network at seed 1 (one scenario per intent) and of the
//! rotation at seed 1 (indices 0..64), one fault-inject corpus injection
//! per class per snapshot, the synthesis drafts of the rotation at seed 2
//! (indices 0..64) with every synthesis fault one at a time and all
//! together, and hand-written edge cases. `bdd::FxHasher` is the fold
//! because std's hasher may change between toolchains.

use cosynth::{reference_configs, Modularizer};
use llm_sim::synth_task::SynthesisDraft;
use llm_sim::FaultKind;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::Hasher;

const BORDER: &str = include_str!("../testdata/ios-border.cfg");

/// Inputs no generator writes: line endings, indentation and case the
/// lexer must normalize, separator-only input, re-entered blocks and the
/// malformed and CLI lines the parser must flag.
const EDGE_CASES: &[&str] = &[
    "",
    "!\n!\n! comment\n",
    "hostname r1\r\n!\r\ninterface Ethernet0/1\r\n ip address 10.0.0.1 255.255.255.0\r\n",
    "router bgp 1\n\tneighbor 1.1.1.1 remote-as 2\n\t network 1.0.0.0 mask 255.0.0.0\n",
    "HOSTNAME R1\nInterface Loopback0\n IP ADDRESS 1.1.1.1 255.255.255.255\nROUTER BGP 7\n NEIGHBOR 2.2.2.2 REMOTE-AS 8\n Neighbor 2.2.2.2 Route-Map RM IN\nROUTE-MAP RM PERMIT 10\n SET COMMUNITY 7:1 ADDITIVE\n MATCH SOURCE-PROTOCOL BGP\n",
    "router bgp 1\n!\nneighbor 1.1.1.1 remote-as 2\n",
    "route-map m permit 20\n set metric 2\nroute-map m deny 10\n set metric 1\nroute-map m permit 20\n set weight 5\n",
    "router bgp 1\n neighbor\n neighbor 1.1.1.1\n neighbor 1.1.1.1 remote-as\n neighbor 1.1.1.1 route-map\n neighbor 1.1.1.1 route-map X sideways\n neighbor 1.1.1.1 frobnicate\n neighbor 300.1.1.1 remote-as 2\n",
    "conf t\nhostname r1\nexit\nend\nconfigure terminal\nwrite\nenable\nip routing\nno ip routing\nexit now\n",
    "interface Ethernet0/0\n ip address 10.0.0.1/24 255.255.255.0\n ip address 10.0.0.1 255.0.255.0\n ip address 10.0.0.1\n description a  spaced   text\nrouter bgp 1\n network 1.0.0.0 mask 255.0.255.0\n network 1.0.0.0 mask\n network 172.16.0.0\n",
    "ip prefix-list p seq 10 permit 1.0.0.0/8 le 24\nip prefix-list p permit 2.0.0.0/8 ge 9 le 32\nip prefix-list p seq 5 deny 3.0.0.0/8\nip prefix-list p seq 5 permit 4.0.0.0/8 ge 33\nip prefix-list p permit 5.0.0.0/8 eq 8\nip community-list expanded e permit 1:.*\nip community-list c deny 1:1 2:2\nip as-path access-list 1 permit ^$\nip as-path access-list 1 deny\n",
    "ip prefix-list q seq 10 permit 1.0.0.0/8\nip prefix-list q seq 10 deny 2.0.0.0/8\nip prefix-list q seq 5 permit 3.0.0.0/8\nip prefix-list q permit 4.0.0.0/8\n",
    "hostname\u{a0}r1\ninterface\x0bEthernet0/2\n IP OSPF COST 5\n Shutdown\n No Shutdown\n bogus\nrouter ospf x\nrouter rip 1\nrouter\nrouter ospf 1\n network 10.0.0.0 0.255.0.255 area 0\n passive-interface\n no passive-interface\n neighbor 1.1.1.1\n",
    "route-map x permit 10\n match community 1:1 c\n match community\n match ip address 10\n match ip address prefix-list\n match as-path\n set community\n set community additive\n set community 1:1 bogus\n set as-path prepend\n set as-path prepend 1 x\n neighbor 1.1.1.1 remote-as 2\n network 1.0.0.0\n frob\n",
];

/// Every text of the corpus, in a fixed order.
fn corpus() -> Vec<String> {
    let mut texts = vec![BORDER.to_string()];
    let mut snapshots: Vec<BTreeMap<String, String>> = Vec::new();
    // One as-graph-512 scenario per intent, on the one network seed 1 draws.
    let mut intents = Vec::new();
    for index in 0.. {
        let (intent, _) = scenario_gen::pinned_intent("as-graph-512", 1, index);
        if !intents.contains(&intent) {
            intents.push(intent);
            let scenario = scenario_gen::generate_family("as-graph-512", 1, index);
            snapshots.push(reference_configs(&Modularizer::assign_scenario(&scenario)));
        }
        if intents.len() == scenario_gen::Intent::ALL.len() {
            break;
        }
    }
    for index in 0..64 {
        let scenario = scenario_gen::generate(1, index);
        snapshots.push(reference_configs(&Modularizer::assign_scenario(&scenario)));
    }
    for (seed, snapshot) in snapshots.iter().enumerate() {
        texts.extend(snapshot.values().cloned());
        for injection in fault_inject::corpus(snapshot, seed as u64) {
            texts.push(injection.configs[&injection.fault.device].clone());
        }
    }
    for index in 0..64 {
        let scenario = scenario_gen::generate(2, index);
        for a in Modularizer::assign_scenario(&scenario) {
            for f in FaultKind::SYNTHESIS {
                texts.push(SynthesisDraft::new(&a.prompt, BTreeSet::from([f])).render());
            }
            let all = BTreeSet::from(FaultKind::SYNTHESIS);
            texts.push(SynthesisDraft::new(&a.prompt, all).render());
        }
    }
    texts.extend(EDGE_CASES.iter().map(|s| s.to_string()));
    texts
}

#[test]
fn cisco_front_end_output_is_pinned() {
    let mut hasher = bdd::FxHasher::default();
    let mut warnings_total = 0;
    let mut debug = String::new();
    let texts = corpus();
    for text in &texts {
        let (ast, warnings) = cisco_cfg::parse(text);
        warnings_total += warnings.len();
        debug.clear();
        write!(debug, "{:?}", (&ast, &warnings)).unwrap();
        hasher.write(debug.as_bytes());
        hasher.write(cisco_cfg::print(&ast).as_bytes());
    }
    // What the allocating front end produced before the zero-copy one
    // replaced it: the corpus size, the warning count and the digest.
    let got = (texts.len(), warnings_total, hasher.finish());
    assert_eq!(got, (6642, 2581, 0xd954_772b_9924_5d5f));
}
