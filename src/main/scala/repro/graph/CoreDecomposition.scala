package repro.graph

import org.apache.spark.graphx.{Edge, Graph => XGraph}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Distributed k-core machinery (§IV-A): the classic core-decomposition view
  * "recursively remove nodes with degree < k", expressed both as an iterative
  * DataFrame peel and as a GraphX peel. Tests assert the two agree with the
  * driver-side `LocalGraph.coreness`.
  */
object CoreDecomposition {

  /** Node ids surviving the k-core peel, as a single-column (`id`) DataFrame.
    * Iterative join-based peeling with per-round local checkpoints to keep
    * the plan from growing with the iteration count.
    */
  def kCoreNodes(edges: DataFrame, k: Int): DataFrame = {
    require(k >= 1, "k must be >= 1")
    val spark = edges.sparkSession
    var cur = edges.select("src", "dst").localCheckpoint(true)
    var size = cur.count()
    var done = size == 0
    while (!done) {
      val sym = cur.union(cur.select(col("dst").as("src"), col("src").as("dst")))
      val ok = sym.groupBy("src").agg(count(lit(1)).as("d")).filter(col("d") >= k)
        .select(col("src").as("id"))
      val next = cur
        .join(ok.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
        .join(ok.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi")
        .select("src", "dst")
        .localCheckpoint(true)
      val nextSize = next.count()
      done = nextSize == size || nextSize == 0
      cur = next
      size = nextSize
    }
    if (size == 0) spark.range(0).select(col("id"))
    else cur.select(col("src").as("id")).union(cur.select(col("dst").as("id"))).distinct()
  }

  /** GraphX variant of [[kCoreNodes]] — iterative degree-filtered subgraph. */
  def kCoreNodesGraphX(edges: DataFrame, k: Int): Set[Long] = {
    val sc = edges.sparkSession.sparkContext
    val edgeRdd = edges.select("src", "dst").rdd
      .map(r => Edge(r.getLong(0), r.getLong(1), 1))
    if (edgeRdd.isEmpty()) return Set.empty
    var g = XGraph.fromEdges[Int, Int](edgeRdd, 1)
    var size = g.vertices.count()
    var done = size == 0
    while (!done) {
      val degs = g.degrees
      val withDeg = g.outerJoinVertices(degs)((_, _, d) => d.getOrElse(0))
      val next = withDeg.subgraph(vpred = (_, d) => d >= k).mapVertices((_, _) => 1)
      next.cache()
      val nextSize = next.vertices.count()
      done = nextSize == size || nextSize == 0
      g = next
      size = nextSize
    }
    if (size == 0) Set.empty
    else g.vertices.map(_._1.toLong).collect().toSet
  }

  /** Node ids of the connected component containing `q`, restricted to the
    * given node set — iterative DataFrame BFS.
    */
  def componentOf(edges: DataFrame, within: DataFrame, q: Long): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val keep = within.select("id").distinct().localCheckpoint(true)
    val inSet = edges.select("src", "dst")
      .join(keep.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
      .join(keep.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi")
      .select("src", "dst") // joins reorder columns; the union below is positional
    val sym = inSet.union(inSet.select(col("dst").as("src"), col("src").as("dst")))
      .localCheckpoint(true)
    var visited = Seq(q).toDF("id").localCheckpoint(true)
    var frontier = visited
    var growing = true
    while (growing) {
      val next = sym
        .join(frontier.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
        .select(col("dst").as("id")).distinct()
        .join(visited, Seq("id"), "left_anti")
        .localCheckpoint(true)
      if (next.isEmpty) growing = false
      else {
        visited = visited.union(next).localCheckpoint(true)
        frontier = next
      }
    }
    visited
  }

  /** Maximal connected k-core containing `q` (§IV-A): distributed peel, then
    * q's component. Empty DataFrame when q does not survive the peel.
    */
  def maximalConnectedKCore(g: AttributedGraph, q: Long, k: Int): DataFrame = {
    val core = kCoreNodes(g.edges, k).localCheckpoint(true)
    if (core.filter(col("id") === q).isEmpty) core.limit(0)
    else componentOf(g.edges, core, q)
  }

  /** Full coreness decomposition, distributed: loop the k-core peel and
    * record the highest k each node survives. `(id, coreness)`.
    */
  def coreness(g: AttributedGraph): DataFrame = {
    val spark = g.spark
    import spark.implicits._
    val all = g.nodes.select("id")
    var survivors = all
    val out = mutable.ArrayBuffer.empty[DataFrame]
    var k = 1
    var remaining = survivors.count()
    while (remaining > 0) {
      val next = kCoreNodes(
        g.edges.join(survivors.withColumnRenamed("id", "src"), Seq("src"), "left_semi")
          .join(survivors.withColumnRenamed("id", "dst"), Seq("dst"), "left_semi"),
        k,
      ).localCheckpoint(true)
      val dropped = survivors.join(next, Seq("id"), "left_anti")
      out += dropped.withColumn("coreness", lit(k - 1))
      survivors = next
      remaining = survivors.count()
      k += 1
    }
    if (out.isEmpty) all.withColumn("coreness", lit(0))
    else out.reduce(_ union _)
  }

  /** Collect the subgraph induced by `ids` into a driver-side [[LocalGraph]],
    * with numerical attributes normalized by the whole graph's `Z(·)` stats.
    */
  def collectLocal(g: AttributedGraph, ids: DataFrame): LocalGraph = {
    val sub = g.induced(ids)
    LocalGraph.build(sub.nodes.collect().map(g.localNode).toSeq,
      sub.edges.collect().map(AttributedGraph.edgePair).toSeq)
  }
}
