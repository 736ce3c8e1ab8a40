"""Classify a single economy, step by step.

Walks one parameter point through the whole pipeline: thresholds, trapping
interval, admissibility gate, and the two chaos classifiers (threshold
inequalities vs direct evaluation of the unimodal-map criterion).  The
showcase point (alpha, beta, lambda) = (3/4, 1/2, 3.61) sits deep in the
chaotic region; edit PARAMS below and re-run to explore.

Run:  python demos/01_classify_a_point.py
"""

from chaoslab import (
    EconomyParams,
    classify_closed_form,
    classify_numerical,
    gate_check,
    pi_set,
    thresholds,
    trapping_interval,
)

PARAMS = EconomyParams(alpha=0.75, beta=0.5, lam=3.61)


def main():
    th = thresholds(PARAMS)
    print(f"economy: alpha={PARAMS.alpha} beta={PARAMS.beta} lambda={PARAMS.lam}")
    print(f"price map: f(p) = p + {PARAMS.lam}*(2*{PARAMS.beta}/p - {4 * (1 - PARAMS.alpha)})")
    print()
    print("lambda thresholds for this (alpha, beta):")
    print(f"  admissibility window : ({th.lambda_g_low:.6g}, {th.lambda_max:.6g})")
    print(f"  confined-set collapse: {th.lambda_pi:.6g}")
    print(f"  chaos onset          : {th.lambda_chaos:.6g}  (= 16/27 of the window)")
    print()

    interval = trapping_interval(PARAMS)
    print(f"trapping interval E = [{interval.a:.6g}, {interval.b:.6g}],"
          f" critical point m = {interval.m:.6g}")

    gate = gate_check(PARAMS, interval)
    print(f"admissibility gate: in_class_g={gate.in_class_g}"
          f" (endpoints={gate.cond_endpoints}, below_diagonal={gate.cond_below_diagonal},"
          f" unimodal={gate.cond_unimodal}, self_map={gate.cond_self_map},"
          f" margin={gate.margin:.6g})")
    print()

    pi = pi_set(PARAMS, interval)
    print(f"confined period<=2 points on the decreasing branch: {[round(x, 10) for x in pi.points]}")

    cf = classify_closed_form(PARAMS)
    num = classify_numerical(PARAMS, interval)
    print()
    print("verdicts:")
    for verdict in (cf, num):
        print(f"  {verdict.method.value:12s} odd_cycle={verdict.odd_cycle}"
              f" turbulent_second_iterate={verdict.turbulent_second_iterate}")
    print()
    print("the numbers behind the numerical verdict:")
    print(f"  f^2(m) = {num.f2_of_m:.10g}  vs  m = {interval.m:.10g}"
          f"  -> expansion {'holds' if num.f2_of_m > interval.m else 'fails'}")
    print(f"  f^3(m) = {num.f3_of_m:.10g}  vs  max(Pi) = {num.pi_max:.10g}"
          f"  -> odd-cycle condition {'holds' if num.f3_of_m > num.pi_max else 'fails'}")


if __name__ == "__main__":
    main()
