package repro.graph

import repro.{SparkSpec, TestGraphs}
import repro.eval.Harness

class PriorityBfsSpec extends SparkSpec {

  private def gq(lg: LocalGraph, q: Long, minSize: Long, gamma: Double = 0.5): Set[Long] = {
    val g = TestGraphs.toAttributed(spark, lg)
    PriorityBfs.collectGq(g, q, minSize, gamma).ids.toSet
  }

  test("collectGq: always contains q") {
    val lg = TestGraphs.randomLocal(20, 0.2, seed = 1)
    assert(gq(lg, 0L, 5).contains(0L))
  }

  test("collectGq: returns exactly minSize nodes when reachable") {
    val lg = TestGraphs.randomLocal(40, 0.3, seed = 2)
    assert(gq(lg, 0L, 17).size === 17)
  }

  test("collectGq: returns all reachable nodes when minSize exceeds them") {
    val lg = TestGraphs.local(6, Seq((0, 1), (1, 2), (3, 4))) // component of 0 = {0,1,2}
    assert(gq(lg, 0L, 100) === Set(0L, 1L, 2L))
  }

  test("collectGq: layers before the last are kept whole (BFS order)") {
    // star: 0 at centre, leaves 1..9; asking for 4 nodes keeps q and trims leaves
    val lg = TestGraphs.local(10, (1 until 10).map(i => (0, i)))
    val got = gq(lg, 0L, 4)
    assert(got.size === 4)
    assert(got.contains(0L))
  }

  test("collectGq: the overshooting layer is trimmed by smallest f") {
    // path 0-1, 0-2 ... leaves have f equal to their attribute distance to 0;
    // TestGraphs.local gives node i the numeric i/(n-1) so f grows with id.
    val lg = TestGraphs.local(8, (1 until 8).map(i => (0, i)))
    val got = gq(lg, 0L, 4, gamma = 0.0)
    // the three smallest-f leaves are 1,2,3
    assert(got === Set(0L, 1L, 2L, 3L))
  }

  test("collectGq: minSize=1 returns just q") {
    val lg = TestGraphs.randomLocal(10, 0.3, seed = 3)
    assert(gq(lg, 0L, 1) === Set(0L))
  }

  test("collectGq: multi-round expansion on a long path") {
    val lg = TestGraphs.local(10, (0 until 9).map(i => (i, i + 1)))
    val got = gq(lg, 0L, 6)
    assert(got === (0L until 6L).toSet) // BFS from 0 walks the path in order
  }

  test("collectGq: G_q's LocalGraph equals the whole graph restricted to its ids") {
    // Path 0-1, then a star from 1 to 2..7 with a chord 2-3 inside that last
    // layer, plus 3-4 and 4-5 and an edge 2-8 leaving G_q. With minSize 6 the
    // layer {2..7} is trimmed to its four lowest-f nodes, which are never
    // expanded, so only the last-layer fetch can find the chords among them.
    val lg = TestGraphs.local(9,
      Seq((0, 1)) ++ (2 to 7).map(i => (1, i)) ++ Seq((2, 3), (3, 4), (4, 5), (2, 8)))
    val g = TestGraphs.toAttributed(spark, lg)
    val got = PriorityBfs.collectGq(g, 0L, 6, gamma = 0.0)
    val whole = Harness.collectWhole(g)
    assert(got.ids.toSet === Set(0L, 1L, 2L, 3L, 4L, 5L))
    assert(got.ids.head === 0L)
    got.ids.indices.foreach { i =>
      val j = whole.indexOf(got.ids(i))
      assert(got.text(i) === whole.text(j))
      assert(got.num(i).toSeq === whole.num(j).toSeq)
      assert(got.adj(i).map(got.ids).toSet === whole.adj(j).map(whole.ids).toSet.filter(got.ids.contains))
    }
    assert(got.edgeCount === 8) // 0-1, 1-2..1-5, 2-3, 3-4, 4-5
  }
}
