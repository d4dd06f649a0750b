"""Every size cap raises ParameterError at its first value past the cap,
with the reason it exists; where that is cheap, the cap itself passes."""

import random

import pytest

from cutbounds import bounds, cli
from cutbounds.bounds import (
    BOUND_RULES,
    ENUMERATION_RULES,
    MAX_BETA_SET_SIZE,
    MAX_CACHED_ROWS,
    MAX_SEARCH_SINKS,
    beta_bound,
    bound_rows,
    enumerate_bounds,
    thm2_search,
)
from cutbounds.errors import ParameterError
from cutbounds.network import (
    Arc,
    BroadcastNetwork,
    combination_network,
    complete_combination_network,
    cut_and_message_families,
    min_cut,
)
from cutbounds.setcalc import MAX_FAMILY, GroundSet, SubsetFamily
from cutbounds.setfn import MAX_VARIABLES, random_joint_distribution


def star(sinks):
    """One arc from the source to each of `sinks` sinks, one message each."""
    nodes = ["s"] + [f"t{k}" for k in range(1, sinks + 1)]
    arcs = [Arc(f"a{k}", "s", f"t{k}", 1) for k in range(1, sinks + 1)]
    demands = {k: [f"W{k}"] for k in range(1, sinks + 1)}
    return BroadcastNetwork(nodes, arcs, "s", nodes[1:], [f"W{k}" for k in demands], demands)


def test_caps_have_their_values():
    assert (MAX_FAMILY, MAX_SEARCH_SINKS, MAX_VARIABLES, MAX_BETA_SET_SIZE) == (16, 5, 6, 6)


def test_family_size():
    ground = GroundSet(2)
    SubsetFamily(ground, (ground.full(),) * MAX_FAMILY)
    with pytest.raises(ParameterError, match="walk up to 2\\^K - 1 sink subsets"):
        SubsetFamily(ground, (ground.full(),) * (MAX_FAMILY + 1))


def test_network_sinks():
    assert star(MAX_FAMILY).K == MAX_FAMILY
    with pytest.raises(ParameterError, match="^networks carry 1..16 sinks: the bound rules"):
        star(MAX_FAMILY + 1)


def test_enumerated_sinks():
    with pytest.raises(ParameterError, match="between 1 and 16: the bound rules walk"):
        enumerate_bounds(MAX_FAMILY + 1, ["csb"])


def test_search_sinks():
    net = complete_combination_network(MAX_SEARCH_SINKS + 1)
    families = cut_and_message_families(net, [min_cut(net, k) for k in range(1, net.K + 1)])
    with pytest.raises(ParameterError, match="^the search is limited to 5 sinks$"):
        thm2_search(*families)
    with pytest.raises(ParameterError, match="^the search is limited to 5 sinks$"):
        bound_rows(("csb", "thm2"), *families)


@pytest.mark.parametrize("rules", [("csb", "thm2"), ("thm2", "csb")])
def test_search_sinks_come_before_any_row(rules):
    """The cap is checked with the rule names, before a row is built or
    priced: a capacity missing from an earlier rule's rows does not name
    itself first, and nothing is stored."""
    net = complete_combination_network(MAX_SEARCH_SINKS + 1)
    families = cut_and_message_families(net, [min_cut(net, k) for k in range(1, net.K + 1)])
    capacities = {arc.label: arc.capacity for arc in net.arcs if arc.label != "a1"}
    bounds._row_tables.clear()
    with pytest.raises(ParameterError, match="^the search is limited to 5 sinks$"):
        bound_rows(rules, *families, capacities)
    assert len(bounds._row_tables) == 0


def complete_families(K):
    """The complete K-sink network, its capacities and its minimum-cut
    cut and message families."""
    net = complete_combination_network(K)
    families = cut_and_message_families(net, [min_cut(net, k) for k in range(1, K + 1)])
    return {arc.label: arc.capacity for arc in net.arcs}, *families


def test_row_table_budget(monkeypatch):
    """The row-path tables hold MAX_CACHED_ROWS rows in all at most, a
    rule table's bounds counting as rows, so one budget bounds all state
    the row path keeps; one pass of the `report` benchmark holds 3509
    (2248 rows, 1261 bounds).  The least recently used tables go first.
    A table of more rows than the budget, row table or rule table, is used
    but not kept and drops nothing; nor is an empty table kept, which would
    count for nothing.  A build stores each rule table it builds as it
    goes, before its row table: so a build whose row table is past the
    budget still keeps those of its rule tables that fit, and they can
    drop every table there before.  Shown at a budget of 80 rows."""
    assert MAX_CACHED_ROWS == 8192 and bounds._row_tables.budget == MAX_CACHED_ROWS
    _, *families = complete_families(4)
    cache = bounds._row_tables
    monkeypatch.setattr(cache, "budget", 80)
    cache.clear()

    def held():
        return [key[:2] for key in cache._tables], cache.rows, cache.hits

    # the csb rule table holds 15 bounds, and the csb row build finds it
    assert len(enumerate_bounds(4, ["csb"])) == 15
    assert held() == ([("csb", 4)], 15, 0)
    counts = []
    for rules in ("csb", "gcsb3", "cor3", "cor2", "csb,gcsb3,cor3"):
        bound_rows(rules.split(","), *families)
        counts.append((len(cache), cache.rows))
    # each build stores its rules' tables, then its row table: csb's 15
    # rows; gcsb3's 32 bounds drop nothing, its 32 rows the csb rule table;
    # cor3's 32 bounds drop csb's rows and gcsb3's bounds, its 32 rows
    # gcsb3's rows; cor2's 40 bounds drop cor3's, its 40 rows cor3's rows;
    # the csb, gcsb3 and cor3 rule tables come back, and their 60 rows drop
    # all else, the rule tables they were built from too
    assert counts == [(2, 30), (3, 79), (2, 64), (2, 80), (1, 60)]
    assert held() == ([(ENUMERATION_RULES, 4)], 60, 1)
    # 324 thm2 rows, which have no rule table, and the 192 cor3 bounds of
    # six sinks, alone and with their 192 rows, are used but not kept, and
    # drop nothing
    assert len(bound_rows(("thm2",), *families)) == 324
    assert len(enumerate_bounds(6, ["cor3"])) == 192
    assert len(bound_rows(("cor3",), *complete_families(6)[1:])) == 192
    # gcsb3 has no bounds below three sinks
    two = complete_combination_network(2)
    two_families = cut_and_message_families(two, [min_cut(two, k) for k in (1, 2)])
    assert bound_rows(("gcsb3",), *two_families) == []
    assert enumerate_bounds(2, ["gcsb3"]) == []
    assert held() == ([(ENUMERATION_RULES, 4)], 60, 1)
    # so the row table of the last build is still there to find
    bound_rows(ENUMERATION_RULES, *families)
    assert held() == ([(ENUMERATION_RULES, 4)], 60, 2)
    # all five rules: the 324 rows are not kept, but the four rule tables
    # fit and are stored in turn; gcsb3's 32 bounds drop the 60 rows,
    # cor2's 40 the csb and gcsb3 bounds
    assert len(bound_rows(BOUND_RULES, *families)) == 324
    assert held() == ([("cor3", 4), ("cor2", 4)], 72, 2)
    # run again, the csb and gcsb3 tables drop the cor3 and cor2 tables
    # before they are looked up, so nothing hits and the same two are left
    assert len(bound_rows(BOUND_RULES, *families)) == 324
    assert held() == ([("cor3", 4), ("cor2", 4)], 72, 2)
    # and the enumeration rules build their row table again
    bound_rows(ENUMERATION_RULES, *families)
    assert held() == ([(ENUMERATION_RULES, 4)], 60, 2)


def test_budgeted_tables_are_transparent(monkeypatch):
    """At a budget of 80 rows, where the tables of one build drop those of
    the last, each call gives what it gives from empty tables: rows, right
    sides and provenances, and enumerated bounds with their provenances."""
    caps, *families = complete_families(4)
    builds = [
        (bound_rows, rules, *families, caps)
        for rules in (("csb",), ("cor3", "csb"), ("csb", "cor3"), ("cor2",), BOUND_RULES)
    ] + [(enumerate_bounds, 4, rules) for rules in (("cor3",), ("csb", "cor3"), ("gcsb3", "csb"))]

    def record(build):
        function, *args = build
        return [
            (row.rate_coeffs, row.capacity_coeffs, row.rhs_value, row.provenance)
            if function is bound_rows
            else (row.terms, row.provenance)
            for row in function(*args)
        ]

    cache = bounds._row_tables
    monkeypatch.setattr(cache, "budget", 80)
    cold = []
    for build in builds:
        cache.clear()
        cold.append(record(build))
    # each build twice in a row, so it finds its own tables, and the whole
    # run twice, so it finds what the builds in between left
    cache.clear()
    twice = [i for i in range(len(builds)) for _ in (0, 1)] * 2
    assert [record(builds[i]) for i in twice] == [cold[i] for i in twice]
    assert cache.hits >= len(twice) // 2


def test_beta_set_size():
    beta_bound(range(1, MAX_BETA_SET_SIZE + 1), ())
    with pytest.raises(ParameterError, match="beta weights grow factorially"):
        beta_bound(range(1, MAX_BETA_SET_SIZE + 2), ())


def test_joint_distribution_variables():
    random_joint_distribution(random.Random(0), MAX_VARIABLES)
    with pytest.raises(ParameterError, match="a pmf holds all 2\\^m outcomes"):
        random_joint_distribution(random.Random(0), MAX_VARIABLES + 1)


def test_gap_campaign_ground(capsys):
    argv = ["verify", "--lemma", "1", "--trials", "1", "--ground"]
    assert cli.main(argv + [str(MAX_VARIABLES)]) == 0
    assert cli.main(argv + [str(MAX_VARIABLES + 1)]) == 2
    assert "--ground must be between 2 and 6" in capsys.readouterr().err


def test_symmetric_sinks(capsys):
    assert cli.main(["region", "--symmetric", "16", *["1"] * 16]) == 0
    assert cli.main(["region", "--symmetric", "17", *["1"] * 17]) == 2
    assert capsys.readouterr().err == (
        "error: the sink count must be between 1 and 16: networks carry at most 16 sinks\n"
    )


def test_combination_network_sinks():
    caps = {(k,): 1 for k in range(1, 10)}
    demands = {k: ["W"] for k in range(1, 10)}
    assert combination_network(9, caps, demands).K == 9
    caps[(10,)], demands[10] = 1, ["W"]
    with pytest.raises(ParameterError, match="\\{12\\} and \\{1,2\\} would share a name"):
        combination_network(10, caps, demands)
