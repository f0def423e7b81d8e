//! Test-target fixture: exempt from the contracts (the unwrap below is
//! fine here), feeds the symbol graph as failpoint arming evidence, and
//! still gets allow-marker hygiene — the reasonless marker is a finding.

// analyze:allow(typed-errors)

#[test]
fn arms_fixture_failpoints() {
    // Arming by wire name, the way the real fault suite drives seams.
    for name in ["fixture.wired", "fixture.unlisted", "fixture.never-evaluated"] {
        assert!(name.starts_with("fixture."));
    }
    let v = [1u32];
    assert_eq!(v.first().copied().unwrap(), 1);
}
