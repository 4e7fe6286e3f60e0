package repro.eval

import repro.baselines.{LocAtc, Vac}
import repro.graph.LocalGraph

/** Effectiveness metrics used by the evaluation section (§VII-A "Metrics"
  * and Table II's four attribute-cohesiveness measures).
  */
object Metrics {

  /** Relative error `|δ* − δ| / δ` (Eq. 2); 0 when both are 0. */
  def relativeError(approx: Double, exact: Double): Double =
    if (exact == 0.0) { if (approx == 0.0) 0.0 else Double.PositiveInfinity }
    else math.abs(approx - exact) / exact

  /** VAC's metric: maximum pairwise composite distance within H ("Min-max"
    * column of Table II — smaller is better).
    */
  def minMaxPairwise(lg: LocalGraph, community: Set[Long], gamma: Double): Double =
    Vac.maxPairwise(lg.localSet(community), lg.pairDistance(_, _, gamma))._3

  /** ATC's metric: attribute coverage `Σ_{a∈A^t(q)} |V_a ∩ V_H|²/|V_H|`
    * (larger is better).
    */
  def coverageScore(lg: LocalGraph, community: Set[Long], qId: Long): Double =
    LocAtc.score(lg, lg.indexOf(qId), lg.localSet(community))

  /** ACQ's metric: fraction of q's textual attributes shared by *every*
    * community member (larger is better). See DESIGN.md §5 for the
    * normalization choice.
    */
  def sharedFraction(lg: LocalGraph, community: Set[Long], qId: Long): Double = {
    val qAttrs = lg.text(lg.indexOf(qId))
    if (qAttrs.isEmpty || community.isEmpty) return 0.0
    val shared = community.foldLeft(qAttrs)((acc, id) => acc.intersect(lg.text(lg.indexOf(id))))
    shared.size.toDouble / qAttrs.size
  }

  /** F1 of a community vs a ground-truth community (Table III / §VII-A
    * Remark).
    */
  def f1(community: Set[Long], truth: Set[Long]): Double = {
    if (community.isEmpty || truth.isEmpty) return 0.0
    val tp = community.intersect(truth).size.toDouble
    if (tp == 0) return 0.0
    val precision = tp / community.size
    val recall = tp / truth.size
    2 * precision * recall / (precision + recall)
  }

  /** 1-based standard-competition ranks ("1224", as Table II uses for ties),
    * in the direction given by `ascending` (true = smaller is better).
    */
  def ranks(values: Seq[Double], ascending: Boolean): Seq[Int] =
    values.map { v =>
      1 + values.count(x => if (ascending) x < v else x > v)
    }
}
