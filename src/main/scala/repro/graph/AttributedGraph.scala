package repro.graph

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.core.AttrDistance

/** An attributed graph per Definition 1 of the paper, held as two DataFrames.
  *
  * `nodes`: `id LONG, ntype STRING, text ARRAY<STRING>, num ARRAY<DOUBLE>`
  *   — `text` is the textual attribute set `A^t(v)`, `num` the numerical
  *   attribute vector `A^#(v)` (fixed dimensionality per graph).
  * `edges`: `src LONG, dst LONG, etype STRING` — undirected, stored once in
  *   canonical orientation (`src < dst`), no self loops, no duplicates.
  */
final case class AttributedGraph(nodes: DataFrame, edges: DataFrame) {

  def spark: SparkSession = nodes.sparkSession

  /** This graph's adjacency keyed by node, the layout SEA's BFS looks its
    * layers up in ([[PriorityBfs.collectGq]]), built on first use. It
    * depends on no query node, `k` or cohesion model.
    */
  lazy val nodeStore: PriorityBfs.NodeStore = PriorityBfs.NodeStore.build(this)

  /** `|V|`, counted once per graph. */
  lazy val nodeCount: Long = nodes.count()
  def edgeCount: Long = edges.count()

  /** Per-dimension `(min, range)` of the numerical attributes (`Z(·)`'s
    * stats), computed once per graph.
    */
  lazy val numStats: (Array[Double], Array[Double]) = AttrDistance.numStats(this)

  private val indexes = mutable.Map.empty[CohesionModel, PeelIndex]

  /** `model`'s [[PeelIndex]] on this graph, built on first use. Neither the
    * peel nor the component labels depend on the query node, so every later
    * call reuses them. Concurrent first calls wait for one build.
    */
  def peelIndex(model: CohesionModel): PeelIndex =
    indexes.synchronized(indexes.getOrElseUpdate(model, PeelIndex.build(this, model)))

  /** `(id, A^t(v), Z(A^#(v)))` of a collected `nodes` row, normalized with
    * this graph's stats — the node shape [[LocalGraph.build]] takes.
    */
  def localNode(r: Row): (Long, Set[String], Array[Double]) = {
    val (mins, rngs) = numStats
    val (t, nm) = AttributedGraph.attributes(r, mins, rngs)
    (r.getAs[Long]("id"), t.toSet, nm)
  }

  /** Nodes of one type — the "target nodes" of a meta-path (§VI-A). */
  def nodesOfType(t: String): DataFrame = nodes.filter(col("ntype") === t)

  def cached(): AttributedGraph = {
    nodes.cache(); edges.cache()
    this
  }
}

object AttributedGraph {

  /** `(src, dst)` of a collected `edges` row. */
  def edgePair(r: Row): (Long, Long) = (r.getAs[Long]("src"), r.getAs[Long]("dst"))

  /** Both orientations of every edge (`src`, `dst`) of `edges`, as pairs. */
  def adjacency(edges: DataFrame): RDD[(Long, Long)] =
    edges.select(col("src"), col("dst"))
      .union(edges.select(col("dst").as("src"), col("src").as("dst")))
      .rdd.map(edgePair)

  /** Adjacency pairs per partition of the per-graph RDDs built from
    * [[nodeRecords]].
    */
  private[graph] val PairsPerPartition = 100000L

  /** Every node of `g` as a [[PriorityBfs.Node]]: its attributes normalized by
    * `g`'s stats and its neighbours over `edges`, a subset of `g`'s edges.
    * Hash-partitioned by id, with one partition per `pairsPerPartition` pairs
    * of [[adjacency]] of `edges`, and at least one. One Spark job counts the
    * pairs; the records are built by the job that first reads them.
    */
  private[graph] def nodeRecords(g: AttributedGraph, edges: DataFrame,
                                 pairsPerPartition: Long): RDD[(Long, PriorityBfs.Node)] = {
    val (mins, rngs) = g.numStats
    val pairs = adjacency(edges)
    val part = new HashPartitioner(math.max(1, math.ceil(pairs.count().toDouble / pairsPerPartition).toInt))
    g.nodes.rdd.map(r => (r.getAs[Long]("id"), r)).cogroup(pairs, part).flatMapValues { case (rs, ds) =>
      rs.map { r =>
        val (text, num) = attributes(r, mins, rngs)
        PriorityBfs.Node(text, num, ds.toArray)
      }
    }
  }

  /** `A^t(v)` and `A^#(v)` of a collected `nodes` row, the latter normalized
    * with the per-dimension `(mins, rngs)`; a null attribute is empty.
    */
  private def attributes(r: Row, mins: Array[Double], rngs: Array[Double]): (Array[String], Array[Double]) = {
    val t = Option(r.getSeq[String](r.fieldIndex("text"))).map(_.toArray).getOrElse(Array.empty[String])
    val nm = Option(r.getSeq[Double](r.fieldIndex("num"))).map(_.toArray).getOrElse(Array.empty[Double])
    (t, AttrDistance.normalize(nm, mins, rngs))
  }

  /** Build from driver-side rows; canonicalizes edge orientation and drops
    * self loops / duplicates. Intended for tests and synthetic generators.
    */
  def fromLocal(
      spark: SparkSession,
      nodeRows: Seq[(Long, String, Seq[String], Seq[Double])],
      edgeRows: Seq[(Long, Long, String)],
  ): AttributedGraph = {
    import spark.implicits._
    val nodes = nodeRows.toDF("id", "ntype", "text", "num")
    val edges = edgeRows
      .collect { case (a, b, t) if a != b => (math.min(a, b), math.max(a, b), t) }
      .distinct
      .toDF("src", "dst", "etype")
    AttributedGraph(nodes, edges)
  }

  /** Homogeneous convenience: one node type, untyped edges. */
  def homogeneous(
      spark: SparkSession,
      nodeRows: Seq[(Long, Seq[String], Seq[Double])],
      edgeRows: Seq[(Long, Long)],
  ): AttributedGraph =
    fromLocal(
      spark,
      nodeRows.map { case (id, t, n) => (id, "V", t, n) },
      edgeRows.map { case (a, b) => (a, b, "E") },
    )
}
