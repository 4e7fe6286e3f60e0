package repro.core

import scala.collection.mutable
import repro.graph.{AttributedGraph, CohesionModel, CoreModel, LocalGraph}

/** Exact baseline for CS-AG (§IV): search-tree enumeration over the maximal
  * connected k-core with three pruning strategies.
  *
  *  - P1 "duplicate states": priority enumeration in descending `f(·,q)` plus
  *    the Theorem 4 check `f(v_m,q) > f(u,q)` (with `u` the node whose
  *    deletion produced the current state and `v_m` the max-f node a step
  *    deletes). The check runs inside the maintenance: the step's deletion
  *    stops at the first node it removes with f above `f(u,q)`
  *    ([[repro.graph.Peel.deleteUpTo]]).
  *  - P2 "unnecessary states": only delete nodes with `f(·,q) > δ(state)`
  *    (Theorem 5).
  *  - P3 "unpromising states": prune a state when the lower bound
  *    `δ̲ = mean of the k smallest non-q f-values` reaches the best δ so far
  *    (Eq. 3–4, Theorem 6).
  *
  * The enumeration itself is a driver-side search over the collected maximal
  * structure (as in the paper); the maximal structure is found distributively
  * (core decomposition, §IV-A).
  */
object ExactCSAG {

  /** Pruning toggles — Table IV's four configurations. */
  final case class Pruning(p1: Boolean = true, p2: Boolean = true, p3: Boolean = true)
  object Pruning {
    val All: Pruning = Pruning()
    /** Exact\P3 = P1+P2 */
    val NoP3: Pruning = Pruning(p3 = false)
    /** Exact\P3+P2 = P1 only */
    val OnlyP1: Pruning = Pruning(p2 = false, p3 = false)
    /** Exact w/o P */
    val None: Pruning = Pruning(p1 = false, p2 = false, p3 = false)
  }

  /** `community` is empty when no connected k-core contains q. `states`
    * counts the candidate deletions tried; a P1 duplicate (f(v) > f(v_prev))
    * is counted without running the maintenance. `capped` reports whether
    * the state budget was exhausted (plays the role of the paper's ">8 days"
    * entries).
    */
  final case class Result(
      community: Set[Long],
      delta: Double,
      states: Long,
      capped: Boolean,
  )

  /** One search-tree node: its candidate deletions `cands(from until until)`,
    * the next to try, P1's bound on f of a step from it (f of the deletion
    * that produced it, ∞ without P1), and the trail mark of its state.
    */
  private final class Frame(val from: Int, val until: Int, val bound: Double, val mark: Int) {
    var next: Int = from
  }

  /** Run the enumeration on a collected local graph. `f(i)` is the composite
    * distance of local node `i` to the query. `objective` defaults to the
    * paper's δ(·) ([[AttrDistance.delta]]); E-VAC reuses the machinery with the min-max objective
    * (P2/P3 are δ-specific, so a non-δ objective requires them off).
    *
    * The search runs on one [[repro.graph.Peel]]: each candidate deletion is
    * applied, its subtree searched, and the deletion undone. The tree is
    * walked with an explicit stack, so its depth is bounded by memory, not by
    * the thread stack.
    */
  def run(
      lg: LocalGraph,
      qIdx: Int,
      f: Array[Double],
      model: CohesionModel,
      pruning: Pruning = Pruning.All,
      stateCap: Long = Long.MaxValue,
      objective: Option[mutable.BitSet => Double] = scala.None,
      accept: Option[mutable.BitSet => Boolean] = scala.None,
  ): Result = {
    require(objective.isEmpty || !(pruning.p2 || pruning.p3), "P2 and P3 need the δ objective")
    val k = model.minCommunitySize - 1
    // Under P2 the objective is δ, so the score of a state is its δ.
    val score: mutable.BitSet => Double =
      objective.getOrElse(AttrDistance.delta(f, _, qIdx))

    val peel = model.peel(lg, lg.allAlive, qIdx)
    val cur = peel.alive
    if (cur.isEmpty) return Result(Set.empty, Double.NaN, 0L, capped = false)

    val ok: mutable.BitSet => Boolean = accept.getOrElse(_ => true)
    val rootScore = score(cur)
    var best = if (ok(cur)) cur.clone() else mutable.BitSet.empty
    var bestScore = if (ok(cur)) rootScore else Double.PositiveInfinity
    var states = 0L
    var capped = false

    // The non-q nodes by index, by ascending f (P3's bound) and by (−f, index)
    // (P1's candidate order); stable sorts, so ties keep index order.
    val others = (0 until lg.n).filter(_ != qIdx).toArray
    val ascendingF = others.sortBy(f)
    val descendingF = others.sortBy(i => -f(i))

    def lowerBound(): Double = {
      // Eq. 3-4: mean of the k smallest f over non-q alive nodes.
      var s = 0.0; var c = 0; var i = 0
      while (c < k && i < ascendingF.length) {
        val v = ascendingF(i)
        if (cur(v)) { s += f(v); c += 1 }
        i += 1
      }
      if (c < k) Double.PositiveInfinity else s / k
    }

    // The open frames' candidates, back to back.
    var cands = new Array[Int](4 * lg.n)
    var top = 0
    val order = if (pruning.p1) descendingF else others
    val stack = mutable.ArrayBuffer.empty[Frame]
    // Opens the current state, produced by a deletion with f = fPrev; `d` is
    // its score, read as its δ by P2.
    def open(fPrev: Double, d: Double): Unit =
      if (!(pruning.p3 && lowerBound() >= bestScore)) {
        if (top + order.length > cands.length)
          cands = java.util.Arrays.copyOf(cands, 2 * cands.length + order.length)
        val from = top
        var i = 0
        while (i < order.length) {
          val u = order(i)
          if (cur(u) && (!pruning.p2 || f(u) > d)) { cands(top) = u; top += 1 }
          i += 1
        }
        stack += new Frame(from, top, if (pruning.p1) fPrev else Double.PositiveInfinity, peel.mark)
      }

    open(Double.PositiveInfinity, rootScore)
    while (stack.nonEmpty && !capped) {
      val fr = stack.last
      if (fr.next == fr.until) { stack.dropRightInPlace(1); top = fr.from }
      else if (states >= stateCap) capped = true
      else {
        val v = cands(fr.next)
        fr.next += 1
        states += 1
        // P1: v_m ≥ f(v), so f(v) > f(v_prev) is a duplicate before any
        // maintenance runs; otherwise the deletion stops at the first node
        // it removes with f > f(v_prev), since then f(v_m) > f(v_prev) too.
        if (!(f(v) > fr.bound)) {
          peel.undo(fr.mark)
          if (peel.deleteUpTo(v, f, fr.bound) && cur.nonEmpty) {
            val cs = score(cur)
            if (cs < bestScore - 1e-12 && ok(cur)) { bestScore = cs; best = cur.clone() }
            open(f(v), cs)
          }
        }
      }
    }

    Result(best.iterator.map(lg.ids).toSet,
      if (best.isEmpty) Double.NaN else bestScore, states, capped)
  }

  /** End-to-end Exact on a distributed graph: distributed maximal connected
    * k-core (§IV-A), collect it, enumerate with prunings (§IV-B). Throws
    * `IllegalArgumentException` when `q` is not in `g`; the community is
    * empty when no connected k-core contains `q`.
    */
  def search(
      g: AttributedGraph,
      q: Long,
      k: Int,
      gamma: Double = 0.5,
      pruning: Pruning = Pruning.All,
      stateCap: Long = Long.MaxValue,
  ): Result = {
    val model = new CoreModel(k)
    val lg = model.maximalConnected(g, q)
    if (lg.n == 0) return Result(Set.empty, Double.NaN, 0L, capped = false)
    val qIdx = lg.indexOf(q)
    run(lg, qIdx, lg.distancesTo(qIdx, gamma), model, pruning, stateCap)
  }
}
