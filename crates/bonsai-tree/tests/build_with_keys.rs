//! A tree built from carried keys is the tree built from the key map.

use bonsai_ic::{plummer_sphere, MilkyWayModel};
use bonsai_sfc::KeyMap;
use bonsai_tree::build::{Tree, TreeParams};
use bonsai_tree::Particles;

/// The key map of a distributed step: a root cube over all particles.
fn keymap_of(p: &Particles) -> KeyMap {
    KeyMap::new(&p.bounds(), TreeParams::default().curve)
}

/// Every built field, printed: `{:?}` of an `f64` round-trips its bits.
fn built(t: &Tree) -> String {
    format!(
        "{:?}",
        (&t.nodes, &t.keys, &t.origin, &t.groups, &t.particles)
    )
}

#[test]
fn carried_keys_build_the_keymap_tree_bit_for_bit() {
    let ics = [
        ("Milky Way", MilkyWayModel::paper().generate(6000, 2014)),
        ("Plummer", plummer_sphere(5000, 9)),
    ];
    for (name, ic) in ics {
        let keymap = keymap_of(&ic);
        let params = TreeParams::default();
        let want = Tree::build_with_keymap(ic.clone(), keymap.clone(), params);
        let keys = keymap.keys_of(&ic.pos);
        let got = Tree::build_with_keys(ic, keys, keymap, params);
        got.check_invariants().unwrap();
        assert!(
            built(&got) == built(&want),
            "{name}: carried keys built another tree"
        );
    }
}

#[test]
#[should_panic(expected = "one key per particle")]
fn a_missing_key_is_refused() {
    let ic = plummer_sphere(100, 3);
    let keymap = keymap_of(&ic);
    let mut keys = keymap.keys_of(&ic.pos);
    keys.pop();
    Tree::build_with_keys(ic, keys, keymap, TreeParams::default());
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "not its particle's key")]
fn a_stale_key_is_caught_in_debug_builds() {
    let ic = plummer_sphere(100, 3);
    let keymap = keymap_of(&ic);
    let mut keys = keymap.keys_of(&ic.pos);
    keys[37] ^= 1;
    Tree::build_with_keys(ic, keys, keymap, TreeParams::default());
}
