package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import repro.TestGraphs

class LocalGraphSpec extends AnyFunSuite {

  test("build: adjacency is symmetric, deduplicated, loop-free") {
    val edges = Seq((1, 2), (0, 1), (1, 0), (0, 1), (2, 2))
    val lg = TestGraphs.local(4, edges)
    assert(lg.adj(0).toSeq === Seq(1))
    assert(lg.adj(1).toSeq === Seq(0, 2))
    assert(lg.adj(2).toSeq === Seq(1))
    assert(lg.adj(3).isEmpty)
    assert(lg.edgeCount === 2)
    // Neighbours come in ascending local index, whatever order the edges come in.
    assert(TestGraphs.sameGraph(TestGraphs.local(4, edges.reverse), lg))
    val r = TestGraphs.randomLocal(30, 0.3, seed = 11)
    val pairs = (0 until r.n).flatMap(u => r.adj(u).filter(_ > u).map((u, _)))
    assert(TestGraphs.sameGraph(TestGraphs.local(30, new scala.util.Random(5).shuffle(pairs)),
      TestGraphs.local(30, pairs.reverse)))
  }

  test("build: edges with unknown endpoints are dropped") {
    val lg = LocalGraph.build(
      Seq((10L, Set("a"), Array(0.0)), (11L, Set("b"), Array(1.0))),
      Seq((10L, 11L), (10L, 99L)),
    )
    assert(lg.edgeCount === 1)
  }

  test("indexOf maps original ids to local indices") {
    val lg = LocalGraph.build(
      Seq((7L, Set.empty[String], Array.empty[Double]), (3L, Set.empty[String], Array.empty[Double])),
      Seq((7L, 3L)),
    )
    assert(lg.ids(lg.indexOf(7L)) === 7L)
    assert(lg.ids(lg.indexOf(3L)) === 3L)
  }

  test("degreeWithin respects the alive mask") {
    val lg = TestGraphs.local(4, Seq((0, 1), (0, 2), (0, 3)))
    assert(lg.degreeWithin(0, mutable.BitSet(0, 1, 2, 3)) === 3)
    assert(lg.degreeWithin(0, mutable.BitSet(0, 1)) === 1)
    assert(lg.degreeWithin(0, mutable.BitSet(0)) === 0)
  }

  test("coreness: clique K4 has coreness 3 everywhere") {
    val lg = TestGraphs.local(4, for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b))
    assert(lg.coreness().toSeq === Seq(3, 3, 3, 3))
  }

  test("coreness: path graph is 1 except isolated") {
    val lg = TestGraphs.local(4, Seq((0, 1), (1, 2)))
    assert(lg.coreness().toSeq === Seq(1, 1, 1, 0))
  }

  test("coreness: matches brute-force peel on random graphs") {
    (1 to 5).foreach { s =>
      val lg = TestGraphs.randomLocal(30, 0.2, seed = s)
      assert(lg.coreness().toSeq === TestGraphs.bruteCoreness(lg).toSeq, s"seed=$s")
    }
  }

  test("pairDistance: composite distance of its attributes") {
    val lg = LocalGraph.build(
      Seq((0L, Set("a", "b"), Array(0.0)), (1L, Set("a"), Array(1.0))),
      Seq((0L, 1L)),
    )
    val expected = 0.5 * (1 - 1.0 / 2) + 0.5 * 1.0
    assert(math.abs(lg.pairDistance(0, 1, 0.5) - expected) < 1e-12)
    assert(lg.pairDistance(0, 0, 0.5) === 0.0)
  }
}
