package repro.baselines

import scala.collection.mutable
import repro.graph.{CohesionModel, LocalGraph}

/** ACQ baseline (Fang et al., PVLDB'16): find the connected k-core containing
  * q whose members all share as many of q's textual attributes as possible
  * (equality matching — numerical attributes are ignored, which is exactly
  * the weakness the paper contrasts against).
  *
  * We search subsets `W ⊆ A^t(q)` from largest to smallest; for each W the
  * candidate nodes are those whose attribute set contains W, and we keep the
  * maximal connected cohesive subgraph of q inside them. The first non-empty
  * result (largest |W|, ties broken by community size) wins. `A^t(q)` is
  * capped at 12 attributes to bound the 2^|A(q)| subset scan.
  */
object Acq {

  final case class Result(community: Set[Long], sharedAttrs: Set[String])

  def run(lg: LocalGraph, qIdx: Int, model: CohesionModel): Result = {
    val qAttrs = lg.text(qIdx).toSeq.sorted.take(12)

    def communityFor(w: Set[String]): mutable.BitSet = {
      val alive = mutable.BitSet.empty
      var i = 0
      while (i < lg.n) {
        if (i == qIdx || w.subsetOf(lg.text(i))) alive += i
        i += 1
      }
      model.maximal(lg, alive, qIdx)
    }

    var best: mutable.BitSet = communityFor(Set.empty)
    var bestW = Set.empty[String]
    var found = false
    var size = qAttrs.length
    while (size >= 1 && !found) {
      var bestAtSize: Option[(mutable.BitSet, Set[String])] = None
      qAttrs.combinations(size).foreach { combo =>
        val w = combo.toSet
        val c = communityFor(w)
        if (c.nonEmpty && bestAtSize.forall(_._1.size < c.size))
          bestAtSize = Some((c, w))
      }
      bestAtSize.foreach { case (c, w) =>
        best = c; bestW = w; found = true
      }
      size -= 1
    }
    Result(best.iterator.map(lg.ids).toSet, bestW)
  }
}
