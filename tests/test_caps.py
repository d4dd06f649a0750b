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


def test_row_table_budget(monkeypatch):
    """The row tables hold MAX_CACHED_ROWS rows in all at most: about
    3.4 MB at the complete K=5 network's 31 occupied cells and 3.5 MB at
    K=8's 255, where one pass of the `report` benchmark holds 2248.  The
    least recently used tables go first; a table of more rows than the
    budget is used but not kept and drops nothing, so a one-shot large
    report leaves the tables as they were; so does an empty table, which
    would count for nothing.  Shown at a budget of 80 rows."""
    assert MAX_CACHED_ROWS == 8192 and bounds._row_tables.budget == MAX_CACHED_ROWS
    net = complete_combination_network(4)
    families = cut_and_message_families(net, [min_cut(net, k) for k in range(1, net.K + 1)])
    cache = bounds._row_tables
    monkeypatch.setattr(cache, "budget", 80)
    cache.clear()
    held = []
    for rules in ("csb", "gcsb3", "cor3", "cor2", "csb,gcsb3,cor3"):
        bound_rows(rules.split(","), *families)
        held.append((len(cache), cache.rows))
    # 15, 32, 32, 40 and 60 rows
    assert held == [(1, 15), (2, 47), (3, 79), (2, 72), (1, 60)]
    assert len(bound_rows(BOUND_RULES, *families)) == 324
    assert (len(cache), cache.rows) == (1, 60)
    two = complete_combination_network(2)
    two_families = cut_and_message_families(two, [min_cut(two, k) for k in (1, 2)])
    assert bound_rows(("gcsb3",), *two_families) == []
    assert (len(cache), cache.rows) == (1, 60)
    hits = cache.hits
    bound_rows(BOUND_RULES, *families)
    bound_rows(ENUMERATION_RULES, *families)
    assert cache.hits == hits + 1


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
