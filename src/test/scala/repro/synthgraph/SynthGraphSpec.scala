package repro.synthgraph

import scala.util.hashing.MurmurHash3
import repro.SparkSpec
import repro.eval.Harness
import repro.graph.{CoreModel, FromScratch}

class SynthGraphSpec extends SparkSpec {

  private lazy val homo = SynthGraph.homogeneous(spark, SynthGraph.HomoSpec(
    nCommunities = 4, communitySize = 25, intraDeg = 12, interDeg = 2,
    bridges = 3, seed = 5))

  private lazy val het = SynthGraph.heterogeneous(spark, SynthGraph.HeteroSpec(
    targetType = "A", hubType = "P", nCommunities = 3,
    communitySize = 15, hubsPerCommunity = 30,
    decoTypes = Seq(("V", 5), ("T", 10)), seed = 6))

  // ---- homogeneous ----------------------------------------------------------

  test("homogeneous: node and membership counts") {
    assert(homo.graph.nodeCount === 100)
    assert(homo.membership.size === 100)
    assert(homo.membership.values.toSet === Set(0, 1, 2, 3))
  }

  test("homogeneous: deterministic in the seed") {
    val a = SynthGraph.homogeneous(spark, SynthGraph.HomoSpec(
      2, 10, 6, 2, seed = 42))
    val b = SynthGraph.homogeneous(spark, SynthGraph.HomoSpec(
      2, 10, 6, 2, seed = 42))
    assert(a.graph.edges.collect().toSet === b.graph.edges.collect().toSet)
    assert(a.graph.nodes.collect().toSet === b.graph.nodes.collect().toSet)
  }

  test("homogeneous: intra-community edges dominate") {
    val edges = homo.graph.edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    val intra = edges.count { case (a, b) => homo.membership(a) == homo.membership(b) }
    assert(intra.toDouble / edges.length > 0.8)
  }

  test("homogeneous: graph is connected (bridges link communities)") {
    val lg = Harness.collectWhole(homo.graph)
    assert(FromScratch.componentOf(lg, 0, lg.allAlive).size === lg.n)
  }

  test("homogeneous: the k-core around a non-bridge query stays in-community") {
    val lg = Harness.collectWhole(homo.graph)
    val q = lg.indexOf(10L) // community 0, non-bridge
    val core = new CoreModel(5).maximal(lg, lg.allAlive, q)
    assert(core.nonEmpty)
    core.foreach(i => assert(homo.membership(lg.ids(i)) === 0, s"node ${lg.ids(i)}"))
  }

  test("homogeneous: members share the community core tags") {
    val lg = Harness.collectWhole(homo.graph)
    (0 until lg.n).foreach { i =>
      val c = homo.membership(lg.ids(i))
      assert(lg.text(i).contains(s"c${c}_core0"))
    }
  }

  test("homogeneous: attribute distance within community ≪ across") {
    val lg = Harness.collectWhole(homo.graph)
    val q = lg.indexOf(10L)
    val sameC = (0 until lg.n).filter(i => i != q && homo.membership(lg.ids(i)) == 0)
    val otherC = (0 until lg.n).filter(i => homo.membership(lg.ids(i)) != 0)
    val dIn = sameC.map(i => lg.pairDistance(q, i, 0.5)).sum / sameC.size
    val dOut = otherC.map(i => lg.pairDistance(q, i, 0.5)).sum / otherC.size
    assert(dIn < dOut / 2, s"in=$dIn out=$dOut")
  }

  test("homogeneous: communityOf returns the planted block") {
    assert(homo.communityOf(10L) === (0L until 25L).toSet)
    assert(homo.communityOf(30L) === (25L until 50L).toSet)
  }

  test("homogeneous: circles exclude bridges and the numeric periphery") {
    // communitySize 25, bridges 3 → 22 non-bridge, periphery ⌈0.45·22⌉ = 10
    val c0 = homo.groundTruthOf(10L)
    assert(c0 === (3L until 15L).toSet)
    assert(homo.circles.intersect(Set(0L, 1L, 2L)).isEmpty) // bridges out
  }

  test("homogeneous: periphery is numerically farther from the centre") {
    val lg = Harness.collectWhole(homo.graph)
    val circle = homo.groundTruthOf(10L).toSeq.map(lg.indexOf)
    val periphery = (15L until 25L).toSeq.map(lg.indexOf)
    val q = lg.indexOf(10L)
    def meanNum(ids: Seq[Int]) =
      ids.map(i => repro.core.AttrDistance.manhattan(lg.num(i), lg.num(q))).sum / ids.size
    assert(meanNum(periphery) > meanNum(circle.filter(_ != q)) * 1.5)
  }

  // ---- heterogeneous --------------------------------------------------------

  test("heterogeneous: node types present") {
    val types = het.graph.nodes.select("ntype").distinct()
      .collect().map(_.getString(0)).toSet
    assert(types === Set("A", "P", "V", "T"))
  }

  test("heterogeneous: only targets carry membership") {
    assert(het.membership.size === 45)
    assert(het.membership.keys.forall(_ < 45L))
  }

  test("heterogeneous: projection has intra-community structure") {
    val proj = repro.graph.MetaPath.project(het.graph, Seq("A", "P", "A"))
    val edges = proj.edges.collect().map(r => (r.getLong(0), r.getLong(1)))
    val intra = edges.count { case (a, b) => het.membership(a) == het.membership(b) }
    assert(intra.toDouble / edges.length > 0.8)
  }

  test("heterogeneous: numerical-only mode yields empty tag sets") {
    val g = SynthGraph.heterogeneous(spark, SynthGraph.HeteroSpec(
      "E", "R", 2, 10, 20, hasText = false, seed = 8))
    val anyTags = g.graph.nodesOfType("E")
      .select(org.apache.spark.sql.functions.size(org.apache.spark.sql.functions.col("text")))
      .collect().map(_.getInt(0)).max
    assert(anyTags === 0)
  }

  test("Datasets: all twelve named datasets build") {
    assert(Datasets.homoSpecs.size === 7)
    assert(Datasets.heteroSpecs.size === 5)
    // spot-build the smallest of each kind
    assert(Datasets.homo(spark, "facebook-lite").graph.nodeCount === 400)
    assert(Datasets.hetero(spark, "dblp-lite").graph.nodesOfType("A").count() === 720)
    // generated once per session
    assert(Datasets.homo(spark, "facebook-lite") eq Datasets.homo(spark, "facebook-lite"))
    assert(Datasets.hetero(spark, "dblp-lite") eq Datasets.hetero(spark, "dblp-lite"))
  }

  /** Order-sensitive digest of a generated graph: its node rows and edge rows
    * in collected order (`num` as raw bits), then its membership and circles
    * sorted.
    */
  private def digest(gen: SynthGraph.Generated): Int = {
    val nodes = gen.graph.nodes.collect().map { r =>
      val num = r.getSeq[Double](3).map(java.lang.Double.doubleToLongBits)
      s"${r.getLong(0)}|${r.getString(1)}|${r.getSeq[String](2).mkString(",")}|${num.mkString(",")}"
    }
    val edges = gen.graph.edges.collect().map(r => s"${r.getLong(0)}|${r.getLong(1)}|${r.getString(2)}")
    MurmurHash3.orderedHash(Seq(
      MurmurHash3.orderedHash(nodes.toSeq),
      MurmurHash3.orderedHash(edges.toSeq),
      MurmurHash3.orderedHash(gen.membership.toSeq.sorted),
      MurmurHash3.orderedHash(gen.circles.toSeq.sorted)))
  }

  test("Datasets: every named graph and Table IV variant keeps its digest") {
    val named = Datasets.homoSpecs.keys.map(n => n -> Datasets.homo(spark, n)) ++
      Datasets.heteroSpecs.keys.map(n => n -> Datasets.hetero(spark, n))
    // Table IV's reduced-size variants, built as Tables.tableIV builds them.
    val tableIV = Seq("facebook-lite", "github-lite", "twitch-lite", "livejournal-lite").map { n =>
      val base = Datasets.homoSpecs(n)
      s"$n/IV" -> SynthGraph.homogeneous(spark,
        base.copy(communitySize = 26, intraDeg = 10, seed = base.seed + 1))
    }
    val actual = (named ++ tableIV).map { case (n, gen) => n -> digest(gen) }.toMap
    // A changed value means a changed graph, row order included.
    val expected = Map[String, Int](
      "amazon-lite" -> 586630344,
      "dblp-lite" -> 422747889,
      "dbpedia-lite" -> -1328765477,
      "facebook-lite" -> 2034675326,
      "facebook-lite/IV" -> -1689332165,
      "freebase-lite" -> -1360562829,
      "github-lite" -> 1779233711,
      "github-lite/IV" -> 863777298,
      "imdb-lite" -> -2010458049,
      "livejournal-lite" -> -1683685566,
      "livejournal-lite/IV" -> 574611129,
      "orkut-lite" -> -2076211636,
      "twitch-lite" -> -1662113544,
      "twitch-lite/IV" -> 765429474,
      "twitter-lite" -> -641131324,
      "yago-lite" -> 1873671371,
    )
    assert(actual === expected, actual.toSeq.sorted.map { case (n, d) => s"\"$n\" -> $d," }
      .mkString("\n", "\n", ""))
  }

  test("Datasets: gammaFor is 0 for numerical-only graphs") {
    assert(Datasets.gammaFor("dbpedia-lite") === 0.0)
    assert(Datasets.gammaFor("dblp-lite") === 0.5)
    assert(Datasets.gammaFor("facebook-lite") === 0.5)
  }
}
