"""Fixture: the sanctioned profile-builder shape (O505-clean).

Pure functions over already-decoded artifacts: a list of trace events
in, an aggregate out.  No ``repro.obs`` import, no ``obs`` parameter,
no clocks — rerunning the fold over the same archive is byte-identical
by construction.
"""


def fold_events(events):
    totals = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        name = str(event.get("name"))
        totals[name] = totals.get(name, 0.0) + float(event.get("dur", 0.0))
    return totals


def join_counters(profile, snapshot):
    counters = snapshot.get("counters", {})
    return {
        name: (profile.get(name, 0.0), counters.get(name, 0.0))
        for name in sorted(set(profile) | set(counters))
    }
