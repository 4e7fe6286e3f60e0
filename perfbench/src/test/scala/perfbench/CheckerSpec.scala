package perfbench

import org.scalatest.funsuite.AnyFunSuite

class CheckerSpec extends AnyFunSuite {

  // Nodes 1-4 form a K4; attributes put 2 closest to 1 and 4 farthest.
  private val k4 = Seq((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L), (2L, 4L), (3L, 4L))
  private def node(id: Long, tags: String*) = (id, tags.toSet, Array(id.toDouble))
  private val base = Seq(node(1, "a", "b"), node(2, "a", "b"), node(3, "a"), node(4, "c"))
  private val gamma = 0.5

  private def mirror(extraNodes: Seq[(Long, Set[String], Array[Double])], extraEdges: Seq[(Long, Long)]) =
    Mirror(base ++ extraNodes, k4 ++ extraEdges)

  private def problems(m: Mirror, h: Set[Long], c: Cohesion, reported: Option[Double] = None,
                       reference: Option[Double] = None) =
    Checker.check(m, 1L, h, c, gamma, reported.getOrElse(Checker.delta(m, h, 1L, gamma)), reference)

  test("delta is the mean composite distance to q over the other members") {
    val m = mirror(Nil, Nil)
    // Numbers 1..4 normalise to 0, 1/3, 2/3, 1; Jaccard distances to {a,b}: 0, 1/2, 1.
    val expected = Seq(0.5 * 0.0 + 0.5 / 3, 0.5 * 0.5 + 0.5 * 2 / 3, 0.5 * 1.0 + 0.5 * 1.0).sum / 3
    assert(math.abs(Checker.delta(m, Set(1L, 2L, 3L, 4L), 1L, gamma) - expected) < 1e-12)
  }

  test("a connected k-core and a connected k-truss with the right delta pass") {
    val m = mirror(Nil, Nil)
    assert(problems(m, Set(1L, 2L, 3L, 4L), KCore(3)).isEmpty)
    assert(problems(m, Set(1L, 2L, 3L, 4L), KTruss(4)).isEmpty)
  }

  test("rejects a disconnected community") {
    // A second K4 on 5-8 with no edge to the first: every node has degree 3.
    val m = mirror((5L to 8L).map(node(_, "a")),
      Seq((5L, 6L), (5L, 7L), (5L, 8L), (6L, 7L), (6L, 8L), (7L, 8L)))
    val ps = problems(m, (1L to 8L).toSet, KCore(3))
    assert(ps.exists(_.contains("not connected")), ps)
  }

  test("rejects a node with fewer than k neighbours in H") {
    val m = mirror(Seq(node(5, "a")), Seq((5L, 1L), (5L, 2L)))
    val ps = problems(m, (1L to 5L).toSet, KCore(3))
    assert(ps.exists(_.contains("node 5 has 2 < 3 neighbours")), ps)
  }

  test("rejects an edge below its triangle support under k-truss") {
    // Edges (5,1) and (5,2) lie in one triangle each; a 4-truss needs two.
    val m = mirror(Seq(node(5, "a")), Seq((5L, 1L), (5L, 2L)))
    val ps = problems(m, (1L to 5L).toSet, KTruss(4))
    assert(ps.exists(p => p.contains("k-truss edges do not connect H") && p.contains("1 < 2 triangles")), ps)
  }

  test("rejects a reported delta that differs from the recomputed one") {
    val m = mirror(Nil, Nil)
    val h = Set(1L, 2L, 3L, 4L)
    val d = Checker.delta(m, h, 1L, gamma)
    assert(problems(m, h, KCore(3), reported = Some(d + 1e-8)).exists(_.contains("reported delta")))
    assert(problems(m, h, KCore(3), reported = Some(Double.NaN)).exists(_.contains("reported delta")))
    assert(problems(m, h, KCore(3), reported = Some(d + 1e-10)).isEmpty)
  }

  test("rejects a delta below the uncapped exact delta of the same q") {
    val m = mirror(Nil, Nil)
    val h = Set(1L, 2L, 3L, 4L)
    val d = Checker.delta(m, h, 1L, gamma)
    assert(problems(m, h, KCore(3), reference = Some(d + 0.01)).exists(_.contains("beats the uncapped exact")))
    assert(problems(m, h, KCore(3), reference = Some(d)).isEmpty)
  }

  test("rejects an empty answer, a missing q and unknown ids") {
    val m = mirror(Nil, Nil)
    assert(problems(m, Set.empty, KCore(3), reported = Some(0.0)) == Seq("empty community"))
    assert(problems(m, Set(2L, 3L, 4L), KCore(2)).exists(_.contains("not in the community")))
    assert(problems(m, Set(1L, 2L, 99L), KCore(1), reported = Some(0.0)).exists(_.contains("not in the graph")))
  }

  test("answerable queries are the nodes of some k-core or k-truss") {
    val m = mirror(Seq(node(5, "a")), Seq((5L, 1L), (5L, 2L)))
    assert(Checker.answerable(m, KCore(3)) == Set(1L, 2L, 3L, 4L))
    assert(Checker.answerable(m, KCore(2)) == Set(1L, 2L, 3L, 4L, 5L))
    assert(Checker.answerable(m, KTruss(4)) == Set(1L, 2L, 3L, 4L))
    assert(Checker.answerable(m, KTruss(5)).isEmpty)
  }
}
