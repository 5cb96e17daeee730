//! Property test: every mutated config the fault corpus emits must
//! survive the print/parse cycle unchanged — render → reparse → lower
//! reaches an identical `config_ir::Device` — or the ground-truth line
//! spans (and with them localization precision) would drift the moment
//! a config round-trips through the session machinery.

use cosynth_fleet::{clean_configs_for, fault_seed, scenario_for};

#[test]
fn mutated_corpus_round_trips_print_parse_lower() {
    // Two full family rotations of the fleet's own scenario stream,
    // every applicable fault class per snapshot.
    for index in 0..12usize {
        let scenario = scenario_for(5, index);
        let configs = clean_configs_for(&scenario);
        let corpus = fault_inject::corpus(&configs, fault_seed(5, index));
        assert!(
            !corpus.is_empty(),
            "{}: corpus must not be empty",
            scenario.name
        );
        for injection in corpus {
            let fault = &injection.fault;
            let text = &injection.configs[&fault.device];
            assert_ne!(
                text, &configs[&fault.device],
                "{}: {fault:?} must change the config",
                scenario.name
            );

            // 1. The mutation is already in canonical printed form: a
            // print/parse cycle is the identity, so line numbers cannot
            // shift under re-rendering.
            let (ast, warnings) = cisco_cfg::parse(text);
            assert!(
                warnings.is_empty(),
                "{}: {fault:?} must stay parseable: {warnings:?}",
                scenario.name
            );
            let reprinted = cisco_cfg::print(&ast);
            assert_eq!(
                &reprinted, text,
                "{}: {fault:?} must survive print∘parse",
                scenario.name
            );

            // 2. Lowering the reparsed text reaches an identical IR:
            // every field, so no hash collision can stand in for it.
            let (device1, _) = config_ir::from_cisco(&ast);
            let (ast2, _) = cisco_cfg::parse(&reprinted);
            let (device2, _) = config_ir::from_cisco(&ast2);
            assert_eq!(
                device1, device2,
                "{}: {fault:?} IR must be stable",
                scenario.name
            );

            // 3. The ground-truth span stays within the mutated text and
            // really brackets a changed region.
            let lines = text.lines().count();
            assert!(fault.line_start >= 1 && fault.line_start <= fault.line_end);
            assert!(
                fault.line_end <= lines,
                "{}: {fault:?} span exceeds {lines} lines",
                scenario.name
            );
            let clean_lines: Vec<&str> = configs[&fault.device].lines().collect();
            let mutated_lines: Vec<&str> = text.lines().collect();
            let touches_change = (fault.line_start..=fault.line_end)
                .any(|n| clean_lines.get(n - 1) != mutated_lines.get(n - 1))
                // Pure deletions bracket the cut: the line *counts*
                // differ even where the bracketing lines match.
                || clean_lines.len() != mutated_lines.len();
            assert!(
                touches_change,
                "{}: {fault:?} span must cover the mutation",
                scenario.name
            );
        }
    }
}
