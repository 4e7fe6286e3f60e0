package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.LocalGraph

class MetricsSpec extends AnyFunSuite {

  private def lg: LocalGraph = LocalGraph.build(
    Seq(
      (0L, Set("a", "b"), Array(0.0)),
      (1L, Set("a", "b"), Array(0.2)),
      (2L, Set("a"), Array(0.4)),
      (3L, Set("c"), Array(1.0)),
    ),
    Seq((0L, 1L), (1L, 2L), (2L, 3L), (0L, 2L), (0L, 3L)),
  )

  test("relativeError: |approx-exact|/exact") {
    assert(math.abs(Metrics.relativeError(0.133, 0.123) - 0.0813) < 1e-3)
    assert(Metrics.relativeError(0.0, 0.0) === 0.0)
    assert(Metrics.relativeError(0.1, 0.0).isPosInfinity)
  }

  test("minMaxPairwise: the worst pair dominates") {
    val mm = Metrics.minMaxPairwise(lg, Set(0L, 1L, 3L), gamma = 0.0)
    assert(math.abs(mm - 1.0) < 1e-12) // (0,3) numeric distance
  }

  test("minMaxPairwise: empty/singleton is 0") {
    assert(Metrics.minMaxPairwise(lg, Set(0L), 0.5) === 0.0)
    assert(Metrics.minMaxPairwise(lg, Set.empty, 0.5) === 0.0)
  }

  test("coverageScore: ATC formula") {
    // q=0, attrs {a,b}; H={0,1,2}: a→3 nodes, b→2 nodes → 9/3 + 4/3
    val s = Metrics.coverageScore(lg, Set(0L, 1L, 2L), 0L)
    assert(math.abs(s - (9.0 / 3 + 4.0 / 3)) < 1e-12)
  }

  test("sharedFraction: fraction of q's attrs shared by everyone") {
    assert(Metrics.sharedFraction(lg, Set(0L, 1L), 0L) === 1.0)      // both a,b
    assert(Metrics.sharedFraction(lg, Set(0L, 1L, 2L), 0L) === 0.5)  // only a
    assert(Metrics.sharedFraction(lg, Set(0L, 3L), 0L) === 0.0)      // nothing
  }

  test("f1: perfect, partial, and zero overlap") {
    assert(Metrics.f1(Set(1L, 2L), Set(1L, 2L)) === 1.0)
    assert(Metrics.f1(Set(1L, 2L), Set(3L, 4L)) === 0.0)
    // P=1/2, R=1/3 → F1=0.4
    assert(math.abs(Metrics.f1(Set(1L, 9L), Set(1L, 2L, 3L)) - 0.4) < 1e-12)
    assert(Metrics.f1(Set.empty, Set(1L)) === 0.0)
  }

  test("ranks: ascending (smaller better) with competition ties") {
    assert(Metrics.ranks(Seq(0.486, 0.491, 0.489, 0.486, 0.486, 0.475), ascending = true)
      === Seq(2, 6, 5, 2, 2, 1)) // Table II's Min-max column
  }

  test("ranks: descending (larger better)") {
    assert(Metrics.ranks(Seq(10.0, 30.0, 20.0), ascending = false) === Seq(3, 1, 2))
  }

  test("ranks: all equal → all rank 1") {
    assert(Metrics.ranks(Seq(1.0, 1.0, 1.0), ascending = true) === Seq(1, 1, 1))
  }
}
