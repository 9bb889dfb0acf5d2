//! The crate graph is part of the design: the serving binary links only
//! what it runs. This test reads the `[dependencies]` table of every
//! `crates/*/Cargo.toml` (std-only, a line scan rather than a TOML
//! parser) and pins three things:
//!
//! * `rtas-svc`'s normal-dependency closure is exactly the serving
//!   link — no experiment harness, no lower-bound search;
//! * the core crate `rtas` links neither of those either;
//! * the crate table in `docs/ARCHITECTURE.md` lists exactly the edges
//!   the manifests declare.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;

type Graph = BTreeMap<String, BTreeSet<String>>;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The package name and direct normal dependencies of one manifest.
/// Dependency keys are the text before `.workspace`/`=` on each line of
/// the `[dependencies]` table.
fn manifest_edges(toml: &str) -> (String, BTreeSet<String>) {
    let mut name = None;
    let mut deps = BTreeSet::new();
    let mut section = "";
    for line in toml.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match section {
            "[package]" if line.starts_with("name") && name.is_none() => {
                let value = line.split('"').nth(1).expect("quoted package name");
                name = Some(value.to_string());
            }
            "[dependencies]" => {
                let key = line.split(['.', '=', ' ']).next().expect("dependency key");
                deps.insert(key.to_string());
            }
            _ => {}
        }
    }
    (name.expect("[package] name"), deps)
}

/// Every workspace crate under `crates/` with its direct normal deps.
fn manifest_graph() -> Graph {
    let mut graph = Graph::new();
    for entry in fs::read_dir(repo_root().join("crates")).expect("crates/ exists") {
        let manifest = entry
            .expect("readable crates/ entry")
            .path()
            .join("Cargo.toml");
        if let Ok(toml) = fs::read_to_string(&manifest) {
            let (name, deps) = manifest_edges(&toml);
            graph.insert(name, deps);
        }
    }
    assert!(
        graph.len() >= 9,
        "expected the nine crates, found {graph:?}"
    );
    graph
}

/// Everything `root` links, directly or transitively (not `root`).
fn closure(graph: &Graph, root: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![root.to_string()];
    while let Some(at) = stack.pop() {
        for dep in graph.get(&at).into_iter().flatten() {
            if seen.insert(dep.clone()) {
                stack.push(dep.clone());
            }
        }
    }
    seen
}

/// The backticked names in one table cell.
fn ticked(cell: &str) -> BTreeSet<String> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The crate table under `## Crate graph` in `docs/ARCHITECTURE.md`:
/// rows `| \`crate\` | \`dep\`, \`dep\` | ... |`.
fn documented_graph() -> Graph {
    let doc = fs::read_to_string(repo_root().join("docs/ARCHITECTURE.md"))
        .expect("docs/ARCHITECTURE.md exists");
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Crate graph"))
        .expect("ARCHITECTURE.md has a `## Crate graph` section");
    let mut graph = Graph::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split('|').collect();
        let name = ticked(cells[1]).into_iter().next().expect("crate cell");
        graph.insert(name, ticked(cells[2]));
    }
    graph
}

fn set(names: &[&str]) -> BTreeSet<String> {
    names.iter().map(|s| s.to_string()).collect()
}

#[test]
fn the_server_links_only_the_serving_crates() {
    let graph = manifest_graph();
    assert_eq!(
        closure(&graph, "rtas-svc"),
        set(&[
            "rtas",
            "rtas-obs",
            "rtas-algorithms",
            "rtas-primitives",
            "rtas-sim"
        ]),
    );
    let core = closure(&graph, "rtas");
    for research in ["rtas-lowerbound", "rtas-bench"] {
        assert!(!core.contains(research), "rtas links {research}: {core:?}");
    }
}

#[test]
fn architecture_doc_lists_every_crate_edge() {
    let manifests = manifest_graph();
    let documented = documented_graph();
    for (name, deps) in &manifests {
        for dep in deps {
            assert!(
                documented.get(name).is_some_and(|d| d.contains(dep)),
                "docs/ARCHITECTURE.md crate table is missing {name} -> {dep}"
            );
        }
    }
    assert_eq!(
        documented, manifests,
        "docs/ARCHITECTURE.md crate table lists edges the manifests lack"
    );
}

#[test]
fn manifest_scan_reads_dependency_keys() {
    let (name, deps) = manifest_edges(
        "[package]\nname = \"x\"\n\n[dependencies]\n# a comment\na.workspace = true\n\
         b = { path = \"../b\" }\n\n[dev-dependencies]\nc.workspace = true\n\n\
         [[bin]]\nname = \"tool\"\n",
    );
    assert_eq!(name, "x");
    assert_eq!(deps, set(&["a", "b"]));
}
