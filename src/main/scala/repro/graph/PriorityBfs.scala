package repro.graph

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import scala.collection.mutable
import repro.core.AttrDistance

/** Attribute-prioritized BFS (§V-A): starting from `q`, expand layer by
  * layer until at least `minSize` nodes are discovered; the final layer is
  * trimmed to the nodes with the smallest composite distance `f(·,q)`, which
  * realizes the paper's "preferentially expand from nodes having smaller
  * composite attribute distances" at layer granularity (whole-frontier
  * rounds instead of one-node-at-a-time expansion).
  *
  * `|G_q|` is Hoeffding-bounded (Theorem 10), so the visited set lives on
  * the driver, and the layers are read from G's [[NodeStore]]. A store
  * fetch runs the same BFS ahead inside each partition it reads, so on a
  * store of one partition a whole walk costs one Spark job; on several, a
  * fetch still serves at least one layer. With no size bound the same walk
  * collects q's maximal connected k-core or k-truss (§IV-A, §VI-C) from a
  * model's peeled graph, which a [[PeelIndex]] keeps as a node store.
  */
object PriorityBfs {

  /** A node as the walk reads it: `A^t(v)` as stored, `Z(A^#(v))`
    * normalized by the whole graph's stats, and its neighbours `dst`.
    */
  final case class Node(text: Array[String], num: Array[Double], dst: Array[Long])

  /** A graph's adjacency keyed by node: the [[Node]] of every node of `G`,
    * hash-partitioned by id, held as one cached id → [[Node]] map per
    * partition (`nodes` has one element per partition). Over all of G's
    * edges it is G's adjacency layout ([[AttributedGraph.nodeStore]]), not a
    * structural index: it holds nothing that depends on `q`, `k` or the
    * cohesion model, so SEA stays index-free. Over the edges a model's peel
    * keeps, in the same partitions, it is that model's [[PeelIndex]].
    */
  final class NodeStore private (val nodes: RDD[mutable.LongMap[Node]]) {
    private val part = nodes.partitioner.get

    /** The records of those `ids` that are in `G`, plus a prefetch: the
      * records of the level-synchronous BFS layers from `ids` that each
      * partition holds, up to the first layer that brings the count of
      * discovered nodes to `minSize` ([[prefetch]]). One Spark job, with one
      * task per partition that holds one of `ids`. On a store of one
      * partition the records are exactly those a walk from `q` towards
      * `minSize` reads, its trimmed last layer included.
      */
    def fetch(ids: Seq[Long], minSize: Long): Array[(Long, Node)] = {
      val want = ids.distinct
      val parts = want.map(part.getPartition).distinct.sorted
      nodes.sparkContext.runJob(nodes,
        (it: Iterator[mutable.LongMap[Node]]) => it.flatMap(prefetch(_, want, minSize)).toArray, parts).flatten
    }
  }

  object NodeStore {

    /** The store over `nodes`, one id → [[Node]] map per partition of a hash
      * partitioner, materialized once: one Spark job.
      */
    private[graph] def apply(nodes: RDD[mutable.LongMap[Node]]): NodeStore = {
      nodes.localCheckpoint()
      nodes.count()
      new NodeStore(nodes)
    }

    /** Every node of `g` as a [[Node]], over [[AttributedGraph.adjacency]] of
      * all of G's edges, hash-partitioned by id with one partition per
      * `pairsPerPartition` pairs, at least one. Spark jobs, once `g.numStats`
      * is known: one that counts the pairs and one that builds the maps.
      */
    private[repro] def build(g: AttributedGraph, pairsPerPartition: Long = 100000L): NodeStore = {
      val (mins, rngs) = g.numStats
      val pairs = AttributedGraph.adjacency(g.edges)
      val part = new HashPartitioner(math.max(1, math.ceil(pairs.count().toDouble / pairsPerPartition).toInt))
      val nodes = g.nodes.rdd.map(r => (r.getAs[Long]("id"), r)).cogroup(pairs, part)
        .mapPartitions(it => Iterator(mutable.LongMap.from(it.flatMap { case (v, (rs, ds)) =>
          rs.map { r =>
            val (text, num) = AttributedGraph.attributes(r, mins, rngs)
            v -> Node(text, num, ds.toArray)
          }
        })), preservesPartitioning = true)
      NodeStore(nodes)
    }
  }

  /** The records in `local` of `ids` and of the level-synchronous BFS
    * layers from them over `local`. Every discovered id counts toward
    * `minSize`, held in `local` or not; the BFS stops after the first layer
    * that brings the count to at least `minSize`, or when no node of the
    * newest layer is in `local`.
    */
  private def prefetch(local: mutable.LongMap[Node], ids: Seq[Long], minSize: Long): Array[(Long, Node)] = {
    def held(layer: Seq[Long]): Seq[(Long, Node)] = layer.flatMap(v => local.get(v).map(v -> _))
    val seen = mutable.HashSet.from(ids)
    var frontier = held(ids)
    val out = mutable.ArrayBuffer.from(frontier)
    while (seen.size < minSize && frontier.nonEmpty) {
      val next = frontier.flatMap(_._2.dst.iterator).filter(seen.add)
      frontier = held(next)
      out ++= frontier
    }
    out.toArray
  }

  /** The neighborhood `G_q` as a driver-side [[LocalGraph]]: its nodes with
    * attributes normalized by the whole graph's stats, and every edge of `G`
    * between two of them. Nodes are ordered layer by layer, by id within a
    * layer, so `q` has index 0. If fewer than `minSize` nodes are reachable
    * from `q`, all reachable nodes are returned.
    *
    * Spark jobs: one when G's [[NodeStore]] has one partition, which every
    * graph below 10⁵ adjacency pairs has; on several partitions at most one
    * per expanded layer plus one for the last layer. None to plan, and none
    * to build the store after its first use on `g`.
    */
  def collectGq(g: AttributedGraph, q: Long, minSize: Long, gamma: Double): LocalGraph =
    walk(g.nodeStore.fetch(_, minSize), q, minSize, gamma)

  /** The BFS behind [[collectGq]] and [[PeelIndex.structureOf]].
    * `fetch(ids)` returns the [[Node]] of each of `ids` that is in the walked
    * graph, and may return the records of further nodes. The walk keeps
    * every record it was given and calls `fetch` only for the ids of a
    * layer that it lacks: at most once per expanded layer and once for the
    * last layer when it stops by size, and never twice for one node. With
    * `minSize = Long.MaxValue` the walk collects q's whole connected
    * component; γ only ranks an overshooting layer, and such a walk never
    * overshoots. Throws `IllegalArgumentException` when `q` is not in the
    * walked graph, after the one fetch of `q`.
    */
  private[graph] def walk(fetch: Seq[Long] => Iterable[(Long, Node)],
                          q: Long, minSize: Long, gamma: Double): LocalGraph = {
    val fetched = mutable.LongMap.empty[Node]
    def lookUp(layer: Seq[Long]): Unit = {
      val missing = layer.filterNot(fetched.contains)
      if (missing.nonEmpty) fetched ++= fetch(missing)
    }
    // The out-pairs of `layer` whose other end passes `keep`.
    def pairsOf(layer: Seq[Long], keep: Long => Boolean): Array[(Long, Long)] =
      layer.iterator.flatMap(v => fetched.get(v).iterator.flatMap(_.dst.iterator.filter(keep).map((v, _))))
        .toArray

    lookUp(Seq(q))
    require(fetched.contains(q), s"query node $q not in graph")
    val visited = mutable.LinkedHashSet(q)
    val edges = mutable.ArrayBuffer.empty[(Long, Long)]
    var layer: Seq[Long] = Seq(q) // newest layer, not yet expanded
    var overshoot: Seq[Long] = Nil
    while (visited.size < minSize && layer.nonEmpty && overshoot.isEmpty) {
      lookUp(layer)
      val out = pairsOf(layer, _ => true)
      edges ++= out
      val next = out.iterator.map(_._2).filterNot(visited).toSeq.distinct.sorted
      if (visited.size + next.size <= minSize) {
        visited ++= next
        layer = next
      } else overshoot = next
    }
    // The overshooting or unexpanded last layer.
    lookUp(if (overshoot.nonEmpty) overshoot else layer)

    val rows = (visited.iterator ++ overshoot).map { v =>
      val n = fetched(v)
      v -> (v, n.text.toSet, n.num)
    }.toMap
    if (overshoot.nonEmpty) {
      // Overshooting layer: keep only the lowest-f portion that fills G_q.
      val (_, qText, qNum) = rows(q)
      def f(v: Long): Double = {
        val (_, t, nm) = rows(v)
        AttrDistance.composite(t, nm, qText, qNum, gamma)
      }
      layer = overshoot.sortBy(v => (f(v), v)).take((minSize - visited.size).toInt)
      visited ++= layer
    }
    // Expanding a layer revealed its edges to earlier layers and to the next
    // one, never those inside the last layer that stayed unexpanded.
    if (layer.size > 1) {
      val inLast = layer.toSet
      edges ++= pairsOf(layer, inLast)
    }
    LocalGraph.build(visited.toSeq.map(rows), edges.toSeq)
  }
}
