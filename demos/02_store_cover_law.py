"""How many stores does it take to turn one constant array into another?

Over a finite index sort with n values, the formula

    store(...store(<v>, k1, e)..., km, e) = <w>   with   v != w

is satisfiable exactly when the m stores can cover all n indices with
the shared element e equal to w.  Fewer than n stores always leave an
uncovered cell where the left side still yields v, so the equality
forces v = w and the formula flips to unsat.

The demo sweeps m = 1..4 over a 4-value index sort and cross-checks
every verdict against the exhaustive enumeration oracle.

Run:  python3 demos/02_store_cover_law.py
"""

from caext import TermManager, check_sat, oracle_solve


def cover_instance(m: TermManager, stores: int):
    idx = m.bv_sort(2)
    asort = m.array_sort(idx, m.bool_sort)
    v, w = m.mk_const("v", m.bool_sort), m.mk_const("w", m.bool_sort)
    e = m.mk_const("e", m.bool_sort)
    t = m.mk_const_array(asort, v)
    for k in range(stores):
        t = m.mk_store(t, m.mk_const(f"k{k}", idx), e)
    return [m.mk_eq(t, m.mk_const_array(asort, w)),
            m.mk_not(m.mk_eq(v, w))]


def main():
    print("index domain has 4 values; sweeping the number of stores:")
    for stores in range(1, 5):
        m = TermManager()
        assertions = cover_instance(m, stores)
        mine = check_sat(m, assertions).verdict
        reference = oracle_solve(assertions).verdict
        marker = "agrees" if mine == reference else "DISAGREES"
        print(f"  {stores} store(s): solver says {mine:5s} "
              f"oracle says {reference:5s} ({marker})")
        assert mine == reference

    print()
    print("with all 4 indices forced distinct the verdict is immediate:")
    m = TermManager()
    assertions = cover_instance(m, 4)
    ks = [m.mk_const(f"k{k}", m.bv_sort(2)) for k in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            assertions.append(m.mk_not(m.mk_eq(ks[a], ks[b])))
    result = check_sat(m, assertions)
    print(f"  verdict: {result.verdict}; stored element e = "
          f"{bool(result.model[m.mk_const('e', m.bool_sort)])}, "
          f"w = {bool(result.model[m.mk_const('w', m.bool_sort)])}")


if __name__ == "__main__":
    main()
