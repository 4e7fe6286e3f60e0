package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable
import repro.TestGraphs

class CohesionModelSpec extends AnyFunSuite {

  private def k4plusTail: LocalGraph =
    // K4 on {0,1,2,3} with a tail 3-4-5
    TestGraphs.local(6, Seq((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))

  // ---- CoreModel ----------------------------------------------------------

  test("CoreModel: maximal connected 3-core is the K4, tail is peeled") {
    val lg = k4plusTail
    val got = new CoreModel(3).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0, 1, 2, 3))
  }

  test("CoreModel: 1-core keeps the whole connected component") {
    val lg = k4plusTail
    assert(new CoreModel(1).maximal(lg, lg.allAlive, 0) === mutable.BitSet(0 to 5: _*))
  }

  test("CoreModel: empty when q is peeled away") {
    val lg = k4plusTail
    assert(new CoreModel(3).maximal(lg, lg.allAlive, 5).isEmpty)
  }

  test("CoreModel: empty when q not alive") {
    val lg = k4plusTail
    assert(new CoreModel(2).maximal(lg, mutable.BitSet(0, 1, 2), 5).isEmpty)
  }

  test("CoreModel: restricted to q's component (two 3-cores)") {
    // two disjoint K4s
    val lg = TestGraphs.local(8,
      (for (a <- 0 until 4; b <- a + 1 until 4) yield (a, b)) ++
      (for (a <- 4 until 8; b <- a + 1 until 8) yield (a, b)))
    val got = new CoreModel(3).maximal(lg, lg.allAlive, 5)
    assert(got === mutable.BitSet(4, 5, 6, 7))
  }

  test("CoreModel: does not mutate the alive set") {
    val lg = k4plusTail
    val alive = lg.allAlive
    new CoreModel(3).maximal(lg, alive, 0)
    assert(alive === lg.allAlive)
  }

  test("CoreModel: every node of the result has degree >= k inside it") {
    (1 to 6).foreach { s =>
      val lg = TestGraphs.randomLocal(40, 0.15, seed = s)
      (2 to 4).foreach { k =>
        val core = new CoreModel(k).maximal(lg, lg.allAlive, 0)
        core.foreach(i => assert(lg.degreeWithin(i, core) >= k, s"seed=$s k=$k node=$i"))
        if (core.nonEmpty) assert(lg.componentOf(0, core) === core)
      }
    }
  }

  test("CoreModel: result is the component of the global k-core (maximality)") {
    (1 to 4).foreach { s =>
      val lg = TestGraphs.randomLocal(30, 0.2, seed = 100 + s)
      val k = 3
      val coreness = lg.coreness()
      val inCore = mutable.BitSet((0 until lg.n).filter(coreness(_) >= k): _*)
      val expected = lg.componentOf(0, inCore)
      val got = new CoreModel(k).maximal(lg, lg.allAlive, 0)
      assert(got === (if (expected(0)) expected else mutable.BitSet.empty), s"seed=$s")
    }
  }

  test("CoreModel: minCommunitySize is k+1") {
    assert(new CoreModel(4).minCommunitySize === 5)
  }

  // ---- TrussModel ---------------------------------------------------------

  test("TrussModel: K4 is a 4-truss") {
    val lg = k4plusTail
    val got = new TrussModel(4).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0, 1, 2, 3))
  }

  test("TrussModel: K4 plus tail at k=3 keeps only the triangle-connected part") {
    val lg = k4plusTail
    // tail edges (3,4),(4,5) are in no triangle → dropped at k=3
    val got = new TrussModel(3).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0, 1, 2, 3))
  }

  test("TrussModel: k=2 keeps every edge (support >= 0)") {
    val lg = k4plusTail
    val got = new TrussModel(2).maximal(lg, lg.allAlive, 0)
    assert(got === mutable.BitSet(0 to 5: _*))
  }

  test("TrussModel: empty when q has no surviving edge") {
    val lg = k4plusTail
    assert(new TrussModel(3).maximal(lg, lg.allAlive, 5).isEmpty)
  }

  test("TrussModel: matches brute-force truss peel on random graphs") {
    (1 to 5).foreach { s =>
      val lg = TestGraphs.randomLocal(25, 0.25, seed = 200 + s)
      (3 to 4).foreach { k =>
        // q's connected component over the brute-force truss edges, empty
        // when q keeps no edge.
        val truss = TestGraphs.local(lg.n, TestGraphs.bruteTrussEdges(lg, k).toSeq)
        val component = truss.componentOf(0, truss.allAlive)
        val expected = if (component.size == 1) mutable.BitSet.empty else component
        assert(new TrussModel(k).maximal(lg, lg.allAlive, 0) === expected, s"seed=$s k=$k")
      }
    }
  }

  test("TrussModel: a k-truss is a (k-1)-core") {
    (1 to 4).foreach { s =>
      val lg = TestGraphs.randomLocal(30, 0.3, seed = 300 + s)
      val k = 4
      val truss = new TrussModel(k).maximal(lg, lg.allAlive, 0)
      truss.foreach(i => assert(lg.degreeWithin(i, truss) >= k - 1, s"seed=$s node=$i"))
    }
  }

  test("TrussModel: minCommunitySize is k") {
    assert(new TrussModel(4).minCommunitySize === 4)
  }

  test("models reject degenerate k") {
    assertThrows[IllegalArgumentException](new CoreModel(0))
    assertThrows[IllegalArgumentException](new TrussModel(1))
  }
}
