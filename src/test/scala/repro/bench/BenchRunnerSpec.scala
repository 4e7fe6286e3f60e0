package repro.bench

import repro.SparkSpec
import repro.baselines.{Acq, LocAtc, Vac}
import repro.core.{AttrDistance, ExactCSAG, Sea}
import repro.eval.Harness
import repro.graph.{CohesionModel, CoreModel, LocalGraph, TrussModel}
import repro.synthgraph.SynthGraph

class BenchRunnerSpec extends SparkSpec {
  import BenchRunner._

  private lazy val prep = {
    val gen = SynthGraph.homogeneous(spark, SynthGraph.HomoSpec(
      nCommunities = 2, communitySize = 16, intraDeg = 10, interDeg = 1,
      bridges = 2, seed = 901))
    Prepared("test", gen.graph, Harness.collectWhole(gen.graph), gen.membership,
      gamma = 0.5, gen.graph, gen.circles)
  }
  private val p = Params(k = 4, exactCap = 2_000L, evacCap = 500L)
  private val keys = Seq("SEA", "SEA-Truss", "Exact", "ACQ-Core", "LocATC-Core", "VAC-Core",
    "E-VAC-Core", "Exact-Truss", "LocATC-Truss", "VAC-Truss")
  private lazy val q = pickQueries(prep, p.copy(queries = 1)).head

  test("evalQuery: every key returns its method's community") {
    val core = new CoreModel(p.k)
    val truss = new TrussModel(p.k)
    def on[A](model: CohesionModel)(run: (LocalGraph, Int) => A): A = {
      val lg = model.maximalConnected(prep.g, q)
      run(lg, lg.indexOf(q))
    }
    def f(lg: LocalGraph, qi: Int): Array[Double] = lg.distancesTo(qi, prep.gamma)
    def exact(model: CohesionModel): ExactCSAG.Result = on(model)((lg, qi) =>
      ExactCSAG.run(lg, qi, f(lg, qi), model, ExactCSAG.Pruning.All, p.exactCap))
    val exactCore = exact(core)
    val acq = on(core)(Acq.run(_, _, core))
    assert(acq.sharedAttrs.nonEmpty)
    val expected = Map(
      "SEA" -> Sea.run(prep.g, q, seaConfig(p, prep.gamma)).community,
      "SEA-Truss" -> Sea.run(prep.g, q, seaConfig(p, prep.gamma, truss = true)).community,
      "Exact" -> exactCore.community,
      "ACQ-Core" -> acq.community,
      "LocATC-Core" -> on(core)(LocAtc.run(_, _, core)).community,
      "VAC-Core" -> on(core)((lg, qi) => Vac.run(lg, qi, f(lg, qi), core, prep.gamma)).community,
      "E-VAC-Core" -> on(core)((lg, qi) =>
        Vac.runExact(lg, qi, f(lg, qi), core, prep.gamma, p.evacCap)).community,
      "Exact-Truss" -> exact(truss).community,
      "LocATC-Truss" -> on(truss)(LocAtc.run(_, _, truss)).community,
      "VAC-Truss" -> on(truss)((lg, qi) => Vac.run(lg, qi, f(lg, qi), truss, prep.gamma)).community,
    )
    keys.foreach(m => assert(expected(m).nonEmpty, m))

    val ev = evalQuery(prep, q, p, keys)
    assert(ev.results.keySet === keys.toSet)
    keys.foreach(m => assert(ev.results(m).community === expected(m), m))
    assert(ev.results("Exact").delta === exactCore.delta)
    // δ is scored on each method's searched graph; it must equal δ on G.
    val whole = Harness.collectWhole(prep.g)
    val fWhole = whole.distancesTo(whole.indexOf(q), prep.gamma)
    keys.foreach { m =>
      val onWhole = AttrDistance.delta(fWhole, whole.localSet(ev.results(m).community), whole.indexOf(q))
      assert(math.abs(ev.results(m).delta - onWhole) <= 1e-12, s"$m: ${ev.results(m).delta} vs $onWhole")
    }
  }

  test("evalQuery: every non-SEA key returns an empty community when q is in no k-core") {
    // q's coreness is below k - 1, so it is in no k-core and no k-truss
    // (a k-truss is a (k-1)-core), while other nodes still are.
    val coreness = prep.lg.coreness()
    val outside = coreness.indices.minBy(coreness(_))
    val k = coreness(outside) + 2
    assert(coreness.max >= k)
    val searched = keys.filterNot(_.startsWith("SEA"))
    val ev = evalQuery(prep, prep.lg.ids(outside), p.copy(k = k), searched)
    assert(ev.results.keySet === searched.toSet)
    searched.foreach { m =>
      assert(ev.results(m).community.isEmpty, m)
      assert(ev.results(m).delta.isNaN, m)
    }
    assert(ev.results("Exact").delta.isNaN)
  }

  test("evalQuery: an unknown key throws, naming it") {
    Seq("VAC-Tress", "SEA-Core").foreach { bad =>
      val e = intercept[IllegalArgumentException](evalQuery(prep, q, p, Seq("Exact", bad)))
      assert(e.getMessage.contains(bad))
    }
  }
}
