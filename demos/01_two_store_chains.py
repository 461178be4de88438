"""Solve a classic instance: two pairs of store chains over a shared array.

Four arrays are built from two constant arrays and one free array `a`:

    s1 = store(<v>, i1, u1)      s3 = store(a, i2, u3)
    s2 = store(a,  j1, u2)       s4 = store(<w>, j2, u4)

The base formula asserts s1 = s2 and s3 = s4.  Whether the defaults
v and w can differ then depends on how much freedom the four store
indices have: forcing index collisions makes the two constant arrays
visible through the chains and eventually forces v = w.

Run:  python3 demos/01_two_store_chains.py
"""

from caext import TermManager, check_sat, print_model, print_term


def build(m: TermManager):
    idx = m.bv_sort(2)
    asort = m.array_sort(idx, m.bool_sort)
    v, w = m.mk_const("v", m.bool_sort), m.mk_const("w", m.bool_sort)
    a = m.mk_const("a", asort)
    i1, j1 = m.mk_const("i1", idx), m.mk_const("j1", idx)
    i2, j2 = m.mk_const("i2", idx), m.mk_const("j2", idx)
    u = [m.mk_const(f"u{k}", m.bool_sort) for k in (1, 2, 3, 4)]
    s1 = m.mk_store(m.mk_const_array(asort, v), i1, u[0])
    s2 = m.mk_store(a, j1, u[1])
    s3 = m.mk_store(a, i2, u[2])
    s4 = m.mk_store(m.mk_const_array(asort, w), j2, u[3])
    phi = [m.mk_eq(s1, s2), m.mk_eq(s3, s4)]
    return phi, dict(v=v, w=w, a=a, i1=i1, j1=j1, u1=u[0], u2=u[1])


def main():
    m = TermManager()
    phi, c = build(m)
    v_ne_w = m.mk_not(m.mk_eq(c["v"], c["w"]))

    variants = [
        ("defaults may coincide", phi + [m.mk_eq(c["v"], c["w"])]),
        ("defaults differ", phi + [v_ne_w]),
        ("defaults differ, first indices collide",
         phi + [v_ne_w, m.mk_eq(c["i1"], c["j1"])]),
        ("defaults differ, first indices apart, first elements equal",
         phi + [v_ne_w, m.mk_not(m.mk_eq(c["i1"], c["j1"])),
                m.mk_eq(c["u1"], c["u2"])]),
    ]

    for label, assertions in variants:
        result = check_sat(m, assertions)
        print(f"{label:55s} -> {result.verdict}")
        print(f"    refinement lemmas: {result.stats.refinements}, "
              f"rounds: {result.stats.iterations}")
        if result.verdict == "sat":
            table = result.model[c["a"]]
            print(f"    middle array a = {table}")

    print()
    print("model for the second variant, printed as SMT-LIB:")
    result = check_sat(m, phi + [v_ne_w])
    names = sorted((t for t in result.model.values
                    if t.name and not t.name.startswith("__")),
                   key=lambda t: t.name)
    print(print_model(m, result.model, names))
    print()
    print("lemmas learned along the way:")
    for rule, lemma in result.stats.lemmas:
        try:
            print(f"  [{rule}] {print_term(lemma)}")
        except Exception:
            print(f"  [{rule}] (uses an internal at-least-n-distinct atom)")


if __name__ == "__main__":
    main()
