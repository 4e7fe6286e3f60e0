package repro.graph

import org.apache.spark.rdd.RDD
import scala.collection.mutable

/** The connected components of the graph that survives a cohesion model's
  * distributed peel, labelled once per graph and model, so that q's maximal
  * connected k-core or k-truss (§IV-A) is one fetch rather than a walk per
  * query (ACQ answers it from its per-graph CL-tree in the same way).
  *
  * `components` holds one record per component, keyed by its label, the
  * least node id in it. `rounds` is the number of labelling rounds the
  * build ran, and `buildMs` the time the build took, peel included.
  */
final class PeelIndex private (val components: RDD[(Long, PeelIndex.Component)], val rounds: Int,
                               val buildMs: Double) {

  /** The component that contains `q`; None when `q` keeps no edge in the
    * peeled graph. One Spark job.
    */
  def componentOf(q: Long): Option[PeelIndex.Component] =
    components.values.filter(_.contains(q)).collect().headOption
}

object PeelIndex {

  /** One component: its node ids in ascending order and their
    * [[PriorityBfs.Node]]s, attributes normalized by the whole graph's stats
    * and neighbours over the peeled edges.
    */
  final case class Component(ids: Array[Long], nodes: Array[PriorityBfs.Node]) {
    def contains(v: Long): Boolean = java.util.Arrays.binarySearch(ids, v) >= 0
  }

  /** Peels `g` with `model`, then labels the peeled graph's components with
    * Hash-to-Min (Rastogi et al., "Finding Connected Components in
    * Map-Reduce in Logarithmic Rounds", ICDE 2013). Each node keeps a
    * cluster, first itself and its neighbours. In a round, each node sends
    * its cluster to the cluster's least id and that id to every member, and
    * its new cluster is the union of what it received. When no cluster
    * changes, a component's least id holds the whole component and every
    * other node holds only that id, its label. A 40-node path takes 8-9
    * rounds, whatever its id order.
    *
    * Spark jobs, once `g.numStats` is known: the peel's, one that counts the
    * peeled adjacency's pairs, one per round (it also counts the clusters
    * that changed), and one that builds the components.
    */
  def build(g: AttributedGraph, model: CohesionModel): PeelIndex = {
    val t0 = System.nanoTime()
    // The nodes that keep an edge in the peeled graph.
    val records = AttributedGraph.nodeRecords(g, model.peelEdges(g.edges), AttributedGraph.PairsPerPartition)
      .filter(_._2.dst.nonEmpty).persist()
    val part = records.partitioner.get

    // Clusters as ascending id arrays, partitioned as `records`.
    var clusters = records.mapPartitions(_.map { case (v, n) => (v, (v +: n.dst).sorted) },
      preservesPartitioning = true)
    var rounds = 0
    var changed = 1L
    while (changed > 0) {
      // A member of a cluster is in its least id's next cluster, so every
      // node receives a message and the join keeps every node.
      val next = clusters
        .flatMap { case (_, c) => Iterator((c(0), c)) ++ c.iterator.map((_, Array(c(0)))) }
        .aggregateByKey(mutable.Set.empty[Long], part)(_ ++= _, _ ++= _)
        .mapValues(_.toArray.sorted)
        .join(clusters) // (v, (new, old))
      next.localCheckpoint()
      changed = next.filter { case (_, (c, old)) => !c.sameElements(old) }.count()
      clusters = next.mapValues(_._1)
      rounds += 1
    }
    val labels = clusters.mapValues(_(0))

    val components = records.join(labels)
      .map { case (v, (n, l)) => (l, (v, n)) }
      .groupByKey(part)
      .mapValues { members =>
        val ms = members.toArray.sortBy(_._1)
        Component(ms.map(_._1), ms.map(_._2))
      }
    components.localCheckpoint()
    components.count()
    records.unpersist()
    new PeelIndex(components, rounds, (System.nanoTime() - t0) / 1e6)
  }
}
