package repro.baselines

import scala.collection.mutable
import repro.graph.{CohesionModel, LocalGraph}

/** LocATC baseline (Huang & Lakshmanan, PVLDB'17 — local variant): maximize
  * the attribute-coverage score
  * `score(H) = Σ_{a ∈ A^t(q)} |V_a ∩ V_H|² / |V_H|`
  * over connected k-cores/k-trusses containing q, by greedy local peeling:
  * repeatedly remove the single node whose removal (after structure
  * maintenance) best improves the score; stop when no removal improves it.
  *
  * Like ATC it matches textual attributes by equality and is blind to
  * numerical attributes — the behavioural contrast the paper draws.
  */
object LocAtc {

  final case class Result(community: Set[Long], score: Double)

  private val MaxIters = 256 // cap on peeling iterations

  def score(lg: LocalGraph, qIdx: Int, alive: mutable.BitSet): Double = {
    if (alive.isEmpty) return 0.0
    val qAttrs = lg.text(qIdx)
    if (qAttrs.isEmpty) return 0.0
    val counts = mutable.Map.empty[String, Int].withDefaultValue(0)
    alive.foreach { i =>
      lg.text(i).foreach(a => if (qAttrs.contains(a)) counts(a) += 1)
    }
    qAttrs.iterator.map(a => counts(a).toDouble * counts(a) / alive.size).sum
  }

  def run(lg: LocalGraph, qIdx: Int, model: CohesionModel): Result = {
    val peel = model.peel(lg, lg.allAlive, qIdx)
    val cur = peel.alive
    var curScore = score(lg, qIdx, cur)
    var improved = cur.nonEmpty
    var iters = 0
    while (improved && iters < MaxIters) {
      improved = false
      iters += 1
      // Each trial deletion is a delete/score/undo on the peel, over a
      // snapshot of the nodes: the peel mutates `cur`.
      var bestV = -1
      var bestScore = curScore
      cur.toArray.foreach { v =>
        if (v != qIdx) {
          val mark = peel.mark
          peel.delete(v)
          if (cur.nonEmpty) {
            val s = score(lg, qIdx, cur)
            if (s > bestScore + 1e-12) { bestScore = s; bestV = v }
          }
          peel.undo(mark)
        }
      }
      if (bestV >= 0) { peel.delete(bestV); curScore = bestScore; improved = true }
    }
    Result(cur.iterator.map(lg.ids).toSet, curScore)
  }
}
