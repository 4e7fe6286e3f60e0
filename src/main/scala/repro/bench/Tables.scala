package repro.bench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import repro.core._
import repro.eval.{Harness, Metrics}
import repro.graph._
import repro.synthgraph.{Datasets, SynthGraph}

/** One producer per table of the paper's evaluation section (§VII). Each
  * returns the formatted table (rows also usable programmatically); the
  * bench suites print and sanity-check them, `jobs/` mains print them.
  */
object Tables {
  import BenchRunner._

  // =========================================================================
  // Table I — dataset statistics
  // =========================================================================

  final case class DatasetStats(name: String, nodes: Long, edges: Long,
      nTypes: Int, eTypes: Int, dMax: Int, dAvg: Double, kMax: Int, kAvg: Double)

  def tableI(spark: SparkSession): (String, Seq[DatasetStats]) = {
    val names = Datasets.homoNames.map(n => (n, true)) ++
      Datasets.heteroNames.map(n => (n, false))
    val rows = names.map { case (name, homo) =>
      val g = if (homo) Datasets.homo(spark, name).graph
              else Datasets.hetero(spark, name).graph
      val lg = Harness.collectWhole(g)
      val deg = lg.adj.map(_.length)
      val core = lg.coreness()
      val nTypes = g.nodes.select("ntype").distinct().count().toInt
      val eTypes = g.edges.select("etype").distinct().count().toInt
      DatasetStats(name, lg.n, lg.edgeCount, nTypes, eTypes,
        if (deg.isEmpty) 0 else deg.max, deg.map(_.toDouble).sum / lg.n,
        if (core.isEmpty) 0 else core.max, core.map(_.toDouble).sum / lg.n)
    }
    val header = f"${"Dataset"}%-18s ${"#Nodes"}%8s ${"#Edges"}%8s ${"#N-types"}%9s ${"#E-types"}%9s ${"d_max"}%6s ${"d_avg"}%7s ${"k_max"}%6s ${"k_avg"}%7s"
    val body = rows.map(r =>
      f"${r.name}%-18s ${r.nodes}%8d ${r.edges}%8d ${r.nTypes}%9d ${r.eTypes}%9d ${r.dMax}%6d ${r.dAvg}%7.2f ${r.kMax}%6d ${r.kAvg}%7.2f")
    (("TABLE I -- Statistics of (synthetic -lite) datasets" +: header +: body).mkString("\n"), rows)
  }

  // =========================================================================
  // Table II — attribute cohesiveness under four metrics (facebook-lite)
  // =========================================================================

  final case class MetricRow(method: String, minMax: Double, coverage: Double,
      shared: Double, delta: Double, ranks: Seq[Int]) {
    def totalRank: Int = ranks.sum
  }

  def tableII(spark: SparkSession): (String, Seq[MetricRow]) = {
    val p = Params()
    val prep = prepareHomo(spark, "facebook-lite")
    val methods = Seq("SEA", "LocATC-Core", "ACQ-Core", "VAC-Core", "Exact", "E-VAC-Core")
    val queries = pickQueries(prep, p)
    // Built once, ahead of the timed queries.
    prep.g.peelIndex(CoreModel(p.k))
    prep.g.nodeStore
    val evals = queries.map(q => evalQuery(prep, q, p, methods))
    val rows = methods.map { m =>
      def avg(f: (Set[Long], Long) => Double): Double = {
        val xs = evals.flatMap(ev => ev.results.get(m).map(r => (r.community, ev.q)))
          .collect { case (c, q) if c.nonEmpty => f(c, q) }
        if (xs.isEmpty) Double.NaN else xs.sum / xs.size
      }
      val minMax = avg((c, _) => Metrics.minMaxPairwise(prep.lg, c, prep.gamma))
      val cover  = avg((c, q) => Metrics.coverageScore(prep.lg, c, q))
      val shared = avg((c, q) => Metrics.sharedFraction(prep.lg, c, q))
      val delta  = meanDelta(evals, m)
      MetricRow(m, minMax, cover, shared, delta, Nil)
    }
    // ranks per metric (min-max ↓, coverage ↑, shared ↑, delta ↓)
    val ranked = {
      val rMin = Metrics.ranks(rows.map(_.minMax), ascending = true)
      val rCov = Metrics.ranks(rows.map(_.coverage), ascending = false)
      val rSh  = Metrics.ranks(rows.map(_.shared), ascending = false)
      val rDe  = Metrics.ranks(rows.map(_.delta), ascending = true)
      rows.zipWithIndex.map { case (r, i) => r.copy(ranks = Seq(rMin(i), rCov(i), rSh(i), rDe(i))) }
    }
    val header = f"${"Method"}%-14s ${"Min-max(VAC)"}%14s ${"Coverage(ATC)"}%15s ${"#Shared(ACQ)"}%14s ${"delta(Ours)"}%13s ${"TotalRank"}%10s"
    val body = ranked.map(r =>
      f"${r.method}%-14s ${fmt(r.minMax)}%8s (${r.ranks(0)}%d) ${fmt(r.coverage, 2)}%9s (${r.ranks(1)}%d) ${fmt(r.shared)}%8s (${r.ranks(2)}%d) ${fmt(r.delta)}%7s (${r.ranks(3)}%d) ${r.totalRank}%10d")
    ((s"TABLE II -- attribute cohesiveness on facebook-lite (k=${p.k}, ${queries.size} queries)"
      +: header +: body).mkString("\n"), ranked)
  }

  // =========================================================================
  // Table III — F1 vs planted (HA-GT) communities
  // =========================================================================

  final case class F1Row(method: String, scores: Map[String, Double])

  def tableIII(spark: SparkSession): (String, Seq[F1Row]) = {
    val p = Params()
    val datasets = Seq("facebook-lite", "livejournal-lite", "orkut-lite", "amazon-lite")
    // Mirror the paper's availability: E-VAC only on the smallest graph,
    // Exact not on the two largest (it "cannot finish" there at paper scale).
    def methodsFor(name: String): Seq[String] =
      Seq("SEA", "LocATC-Core", "ACQ-Core", "VAC-Core") ++
        (if (name == "facebook-lite" || name == "livejournal-lite") Seq("Exact") else Nil) ++
        (if (name == "facebook-lite") Seq("E-VAC-Core") else Nil)
    val all = Seq("SEA", "LocATC-Core", "ACQ-Core", "VAC-Core", "Exact", "E-VAC-Core")
    val perDataset = datasets.map { name =>
      val prep = prepareHomo(spark, name)
      val methods = methodsFor(name)
      // Built once, ahead of the timed queries.
      prep.g.peelIndex(CoreModel(p.k))
      prep.g.nodeStore
      val evals = pickQueries(prep, p).map(q => evalQuery(prep, q, p, methods))
      val truth = SynthGraph.Generated(prep.raw, prep.membership, prep.circles)
      val f1s = methods.map { m =>
        val xs = evals.flatMap { ev =>
          ev.results.get(m).map(r => Metrics.f1(r.community, truth.groundTruthOf(ev.q)))
        }
        m -> (if (xs.isEmpty) Double.NaN else xs.sum / xs.size)
      }.toMap
      name -> f1s
    }.toMap
    val rows = all.map(m => F1Row(m, datasets.map(d =>
      d -> perDataset(d).getOrElse(m, Double.NaN)).toMap))
    val header = f"${"Method"}%-14s" + datasets.map(d => f"$d%18s").mkString
    val body = rows.map(r => f"${r.method}%-14s" +
      datasets.map(d => f"${fmt(r.scores(d), 2)}%18s").mkString)
    ((s"TABLE III -- F1 vs planted ground truth (k=${p.k}, ${p.queries} queries)"
      +: header +: body).mkString("\n"), rows)
  }

  // =========================================================================
  // Table IV — effect of the pruning strategies on Exact
  // =========================================================================

  final case class PruningRow(config: String, dataset: String, timeMs: Double,
      states: Double, capped: Boolean)

  def tableIV(spark: SparkSession): (String, Seq[PruningRow]) = {
    val p = Params(queries = 5)
    val cap = 1_000_000L
    val datasets = Seq("facebook-lite", "github-lite", "twitch-lite", "livejournal-lite")
    val configs = Seq(
      "Exact"        -> ExactCSAG.Pruning.All,
      "Exact\\P3"    -> ExactCSAG.Pruning.NoP3,
      "Exact\\P3+P2" -> ExactCSAG.Pruning.OnlyP1,
      "Exact w/o P"  -> ExactCSAG.Pruning.None,
    )
    val rows = mutable.ArrayBuffer.empty[PruningRow]
    datasets.foreach { name =>
      // Reduced-size variants (smaller blocks) so the fully-pruned Exact
      // completes under the state cap while the unpruned one still explodes —
      // the differentiation Table IV is about. Documented in EXPERIMENTS.md.
      val base = Datasets.homoSpecs(name)
      val spec = base.copy(communitySize = 26, intraDeg = 10, seed = base.seed + 1)
      val gen = SynthGraph.homogeneous(spark, spec)
      val prep = Prepared(name, gen.graph, Harness.collectWhole(gen.graph),
        gen.membership, Datasets.gammaFor(name), gen.graph, gen.circles)
      val queries = pickQueries(prep, p)
      val model = CoreModel(p.k)
      val cores = queries.map(q => (q, model.maximalConnected(prep.g, q))).filter(_._2.n > 0)
      configs.foreach { case (label, pruning) =>
        val runs = cores.map { case (q, lg) =>
          val qi = lg.indexOf(q)
          Harness.timeMs(ExactCSAG.run(lg, qi, lg.distancesTo(qi, prep.gamma), model, pruning, cap))
        }
        rows += PruningRow(label, name,
          runs.map(_._2).sum / math.max(runs.size, 1),
          runs.map(_._1.states.toDouble).sum / math.max(runs.size, 1),
          runs.exists(_._1.capped))
      }
    }
    val header = f"${"Config"}%-14s" + datasets.map(d => f"$d%26s").mkString +
      "\n" + f"${""}%-14s" + datasets.map(_ => f"${"time(ms)"}%13s${"#states"}%13s").mkString
    val body = configs.map { case (label, _) =>
      f"$label%-14s" + datasets.map { d =>
        val r = rows.find(x => x.config == label && x.dataset == d).get
        val st = if (r.capped) f">${r.states}%.2e" else f"${r.states}%.2e"
        f"${fmt(r.timeMs, 1)}%13s$st%13s"
      }.mkString
    }
    ((s"TABLE IV -- effect of prunings on Exact (k=${p.k}, ${p.queries} queries, state cap=$cap)"
      +: header +: body).mkString("\n"), rows.toSeq)
  }

  // =========================================================================
  // Table V — core- and truss-based methods on heterogeneous graphs
  // =========================================================================

  /** `cells`: dataset -> (per-query time ms, error %). `indexMs`: dataset ->
    * the once-per-dataset build the method's per-query times exclude: the
    * peel and [[PeelIndex]] of its cohesion model, or for SEA, which is
    * index-free (§V), the graph's node store, its adjacency keyed by node.
    */
  final case class HeteroRow(method: String,
      cells: Map[String, (Double, Double)], indexMs: Map[String, Double])

  def tableV(spark: SparkSession): (String, Seq[HeteroRow]) = {
    val p = Params(k = 5, queries = 10, exactCap = 200_000L)
    val datasets = Datasets.heteroNames
    val coreMethods = Seq("SEA", "ACQ-Core", "LocATC-Core", "VAC-Core")
    val trussMethods = Seq("SEA-Truss", "LocATC-Truss", "VAC-Truss")
    val all = coreMethods ++ trussMethods
    val perDataset = datasets.map { name =>
      val prep = prepareHetero(spark, name)
      val methods = all ++ Seq("Exact", "Exact-Truss")
      val queries = pickQueries(prep, p)
      // Each model's index and the node store are built once, ahead of the
      // timed queries, and reported on their own: the per-query times
      // exclude them. Each reports the time its own build took, whichever
      // table built it first.
      val coreIndex = prep.g.peelIndex(CoreModel(p.k)).buildMs
      val trussIndex = prep.g.peelIndex(TrussModel(p.k)).buildMs
      val store = prep.g.nodeStore.buildMs
      val evals = queries.map(q => evalQuery(prep, q, p, methods))
      val cells = all.map { m =>
        val exactKey = if (m.contains("Truss")) "Exact-Truss" else "Exact"
        val index = if (m.startsWith("SEA")) store
                    else if (m.contains("Truss")) trussIndex else coreIndex
        m -> ((meanTime(evals, m), meanError(evals, m, exactKey) * 100), index)
      }.toMap
      name -> cells
    }.toMap
    val rows = all.map(m => HeteroRow(m,
      datasets.map(d => d -> perDataset(d)(m)._1).toMap,
      datasets.map(d => d -> perDataset(d)(m)._2).toMap))
    val header = f"${"Method"}%-14s" + datasets.map(d => f"$d%38s").mkString +
      "\n" + f"${""}%-14s" +
      datasets.map(_ => f"${"time(ms)"}%14s${"index(once)"}%12s${"err(%)"}%12s").mkString
    val body = rows.map { r =>
      f"${r.method}%-14s" + datasets.map { d =>
        val (t, e) = r.cells(d)
        f"${fmt(t, 1)}%14s${fmt(r.indexMs(d), 1)}%12s${fmt(e, 2)}%12s"
      }.mkString
    }
    ((s"TABLE V -- heterogeneous graphs, (k,P)-core and (k,P)-truss (k=${p.k}, ${p.queries} queries)"
      +: header +: body).mkString("\n"), rows)
  }

  // =========================================================================
  // Table VI — case study: size-bounded SEA, round by round
  // =========================================================================

  final case class CaseRow(bound: (Int, Int), round: Int, deltaStar: Double,
      moe: Double, deltaS: Long, timeMs: Double, errorPct: Double)

  def tableVI(spark: SparkSession): (String, Seq[CaseRow]) = {
    val p = Params(k = 5)
    val prep = prepareHetero(spark, "imdb-lite")
    val q = pickQueries(prep, p.copy(queries = 1)).head
    prep.g.nodeStore // built once, ahead of the timed rounds
    // The paper uses size bounds [10,30] and [30,50] on the 2.9M-node IMDB;
    // our imdb-lite communities hold ~27 eligible members, so the two bounds
    // are scaled to [10,20] and [20,27] (EXPERIMENTS.md).
    val bounds = Seq((10, 20), (20, 27))
    // Size-bounded exact references for the error column: enumeration with a
    // size-acceptance filter (P1-only pruning — P2/P3's proofs assume the
    // unconstrained objective), state-capped as a best-effort ground truth.
    val model = CoreModel(p.k)
    val coreLg = model.maximalConnected(prep.g, q)
    val qi = coreLg.indexOf(q)
    val f = coreLg.distancesTo(qi, prep.gamma)
    val exactByBound = bounds.map { case (l, h) =>
      val r = ExactCSAG.run(coreLg, qi, f, model,
        ExactCSAG.Pruning.OnlyP1, p.exactCap,
        accept = Some(a => a.size >= l && a.size <= h))
      (l, h) -> r.delta
    }.toMap
    val rows = bounds.flatMap { b =>
      val exact = exactByBound(b)
      val r = Sea.run(prep.g, q, seaConfig(p, prep.gamma, sizeBound = Some(b)))
      r.rounds.map { rd =>
        val err =
          if (exact > 0 && !rd.deltaStar.isNaN) math.abs(rd.deltaStar - exact) / exact * 100
          else Double.NaN
        CaseRow(b, rd.round, rd.deltaStar, rd.moe, rd.addedSamples, rd.timeMs, err)
      }
    }
    val header = f"${"Size bound"}%-12s ${"Round"}%6s ${"delta*"}%12s ${"MoE eps"}%12s ${"|dS|"}%8s ${"time(ms)"}%10s ${"err(%)"}%9s"
    val body = rows.map { r =>
      val bound = s"[${r.bound._1},${r.bound._2}]"
      val moe = if (r.moe.isNaN) "-" else f"${r.moe}%.2e"
      f"$bound%-12s ${r.round}%6d ${fmt(r.deltaStar, 4)}%12s $moe%12s ${r.deltaS}%8d ${fmt(r.timeMs, 1)}%10s ${fmt(r.errorPct, 2)}%9s"
    }
    ((s"TABLE VI -- size-bounded SEA case study on imdb-lite (q=$q, k=${p.k})"
      +: header +: body).mkString("\n"), rows)
  }
}
