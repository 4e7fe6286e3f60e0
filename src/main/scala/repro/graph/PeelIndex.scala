package repro.graph

import org.apache.spark.{Partitioner, TaskContext}
import org.apache.spark.rdd.RDD
import scala.collection.mutable
import scala.reflect.ClassTag
import repro.graph.PriorityBfs.{Node, NodeStore}

/** The graph that survives a cohesion model's peel of G, kept once per graph
  * and model as a [[NodeStore]], so that q's maximal connected k-core or
  * k-truss (§IV-A) is the walk from q that collects SEA's `G_q`, over the
  * peeled graph instead of G.
  *
  * `store` holds every node of G, its neighbours cut down to the edges the
  * peel keeps, in the partitions of G's own node store. `exchanges` is the
  * number of rounds in which the build's partitions exchanged peeled edges,
  * none on a store of one partition.
  */
final class PeelIndex private (val store: NodeStore, val exchanges: Int) {

  /** q's connected component in the peeled graph, walked from `q` over
    * `store` by [[PriorityBfs.walk]], so nodes come layer by layer from `q`.
    * Empty when `q` keeps no edge; throws `IllegalArgumentException` when
    * `q` is not in G, after the one fetch of `q`. On a store of one
    * partition the first fetch's BFS ahead reads the whole component, so
    * this is one Spark job; on several, at most one per BFS layer.
    */
  def structureOf(q: Long): LocalGraph = {
    val lg = PriorityBfs.walk(store.fetch(_, Long.MaxValue), q, Long.MaxValue, gamma = 0.0)
    if (lg.n == 1) LocalGraph.build(Nil, Nil) else lg
  }
}

object PeelIndex {

  /** Builds the index inside the partitions of `store`, G's adjacency keyed
    * by node, graph-centric (Tian et al., "From Think Like a Vertex to Think
    * Like a Graph", PVLDB 2013): each partition runs the model's own [[Peel]]
    * cascade over its nodes to a local fixed point, with its neighbours in
    * other partitions pinned. On several partitions each first reads the
    * neighbour lists of its cut neighbours once (the halo, so that every
    * triangle on one of its edges is in view), and the partitions then
    * exchange by shuffle the edges they peeled, until none peels another. A
    * view holds every edge G's peel keeps (and perhaps some another
    * partition has peeled but not yet told), so what a view peels G's peel
    * peels too; once no view peels another edge, each agrees with G's peel.
    * A last pass writes each node's kept edges into a store with `store`'s
    * partitioner.
    *
    * Spark jobs: one per exchange round and one that writes the store, so one
    * in all on a store of one partition.
    */
  private[repro] def build(store: NodeStore, model: CohesionModel): PeelIndex = {
    val maps = store.nodes
    val part = maps.partitioner.get
    // One partition has no cut edge: no halo and nothing to exchange.
    val several = maps.getNumPartitions > 1
    // Each node's neighbour list, to every other partition that holds a
    // neighbour of it. Keyed by partition index, which `part` maps to itself.
    val halo = if (!several) maps.map(_ => mutable.LongMap.empty[Array[Long]]) else maps
      .flatMap(_.iterator.flatMap { case (v, n) =>
        val home = part.getPartition(v)
        n.dst.iterator.map(part.getPartition).filter(_ != home).distinct.map((_, (v, n.dst)))
      })
      .partitionBy(part)
      .mapPartitions(it => Iterator(mutable.LongMap.from(it.map(_._2))), preservesPartitioning = true)
      .persist()

    // The edges (`a < b`) each partition knows to be peeled, and those it is
    // told of this round.
    var dead = maps.map(_ => Set.empty[(Long, Long)])
    var inbox = maps.sparkContext.emptyRDD[(Int, (Long, Long))]
    def inViews[A: ClassTag](f: View => A): RDD[A] =
      maps.zipPartitions(halo, dead, inbox.partitionBy(part), preservesPartitioning = true) { (l, h, d, in) =>
        Iterator(f(new View(l.next(), h.next(), d.next() ++ in.map(_._2), model, part)))
      }

    var exchanges = 0
    var sent = if (several) 1L else 0L
    while (sent > 0) {
      val round = inViews(_.repeel())
      round.localCheckpoint()
      sent = round.map(_._2.length.toLong).reduce(_ + _)
      dead = round.map(_._1)
      inbox = round.flatMap(_._2)
      exchanges += 1
    }

    val peeled = NodeStore(inViews(_.kept))
    halo.unpersist()
    new PeelIndex(peeled, exchanges)
  }

  /** One partition's view in one round: its own nodes, then their neighbours
    * in other partitions (pinned), over G's edges among these nodes (the
    * halo's included) less the `dead` ones, peeled by `model`.
    */
  private final class View(local: mutable.LongMap[Node], halo: mutable.LongMap[Array[Long]],
                           dead: Set[(Long, Long)], model: CohesionModel, part: Partitioner) {
    private val own = local.size
    private val lg = {
      val ids = local.keys.toArray.sorted ++ halo.keys.toArray.sorted
      val at = mutable.LongMap.from(ids.iterator.zipWithIndex)
      val lists = local.iterator.map { case (v, n) => (v, n.dst) } ++ halo.iterator
      // Each edge once, from its lesser end.
      val pairs = for ((v, dst) <- lists; w <- dst.iterator if v < w && at.contains(w) && !dead((v, w)))
        yield (at(v), at(w))
      new LocalGraph(ids, pairs.toArray, Array.fill(ids.length)(Set.empty),
        Array.fill(ids.length)(Array.emptyDoubleArray))
    }
    private val peel = model.peelAll(lg, own)
    private def id(u: Int): Long = lg.ids(u)

    /** This round's peel's removals, each sent to every other partition whose
      * view holds it (its ends' and its triangles' third nodes'): the edges
      * now known to be peeled, and the messages.
      */
    def repeel(): (Set[(Long, Long)], Array[(Int, (Long, Long))]) = {
      val lost = (for (u <- 0 until own; j <- lg.adj(u).indices if !peel.keeps(u, j); w = lg.adj(u)(j))
        yield (u, w, (id(u) min id(w), id(u) max id(w)))).distinctBy(_._3)
      val out = lost.flatMap { case (u, w, e) =>
        (Seq(u, w) ++ lg.adj(u).intersect(lg.adj(w))).map(x => part.getPartition(id(x))).distinct
          .filter(_ != TaskContext.getPartitionId()).map((_, e))
      }
      (dead ++ lost.map(_._3), out.toArray)
    }

    /** Every own node's [[Node]], its neighbours cut down to the kept edges. */
    def kept: mutable.LongMap[Node] = mutable.LongMap.from(Iterator.range(0, own).map { u =>
      val dst = lg.adj(u).indices.filter(peel.keeps(u, _)).map(j => id(lg.adj(u)(j))).toArray
      id(u) -> local(id(u)).copy(dst = dst)
    })
  }
}
