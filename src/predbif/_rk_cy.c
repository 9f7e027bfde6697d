/* Compiled adaptive Dormand-Prince 5(4) kernel for the scaled system.

   Twin of ``_rk_py.integrate_kernel``: the same tableau, controller and
   status codes, and every float expression with the same operands in the
   same order, so the two return the same bits.  max and min are written
   as Python's builtins compute them, max(u, v) = v if v > u else u, and
   not as fmax/fmin, which treat NaN differently.  setup.py compiles this
   file with -ffp-contract=off: a fused multiply-add rounds once where
   Python rounds twice.

   Status codes: 0 = reached t_end, 1 = minimum step reached or
   ``max_steps`` step attempts used up before t_end, 2 = escaped or not
   finite. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>

/* Dormand-Prince 5(4) tableau */
static const double A21 = 1.0 / 5.0;
static const double A31 = 3.0 / 40.0, A32 = 9.0 / 40.0;
static const double A41 = 44.0 / 45.0, A42 = -56.0 / 15.0, A43 = 32.0 / 9.0;
static const double A51 = 19372.0 / 6561.0, A52 = -25360.0 / 2187.0;
static const double A53 = 64448.0 / 6561.0, A54 = -212.0 / 729.0;
static const double A61 = 9017.0 / 3168.0, A62 = -355.0 / 33.0;
static const double A63 = 46732.0 / 5247.0, A64 = 49.0 / 176.0, A65 = -5103.0 / 18656.0;
static const double B1 = 35.0 / 384.0, B3 = 500.0 / 1113.0, B4 = 125.0 / 192.0;
static const double B5 = -2187.0 / 6784.0, B6 = 11.0 / 84.0;
/* 4th-order error weights (b5 - b4 differences) */
static const double E1 = 71.0 / 57600.0, E3 = -71.0 / 16695.0, E4 = 71.0 / 1920.0;
static const double E5 = -17253.0 / 339200.0, E6 = 22.0 / 525.0, E7 = -1.0 / 40.0;

static const double ESCAPE_RADIUS = 1.0e3;

typedef struct {
    double a, b, c, h, delta, eta, m;
    int x_axis, y_axis;
} Field;

/* dx = x(1 - x) - x^2 y / (a x^2 + b x + 1) - h x / (c + x) and
   dy = y (delta - eta y / (m + x)), with dx (dy) held at 0 on the
   invariant axis x = 0 (y = 0) */
static inline void
field(const Field *f, double x, double y, double *dx, double *dy)
{
    *dx = f->x_axis ? 0.0 : (x * (1.0 - x) - x * x * y / (f->a * x * x + f->b * x + 1.0)
                             - f->h * x / (f->c + x));
    *dy = f->y_axis ? 0.0 : y * (f->delta - f->eta * y / (f->m + x));
}

/* Appends t, x, y, dx and dy to the five lists; -1 with an exception set
   on failure. */
static int
push(PyObject **lists, double t, double x, double y, double dx, double dy)
{
    const double values[5] = {t, x, y, dx, dy};
    for (int i = 0; i < 5; i++) {
        PyObject *v = PyFloat_FromDouble(values[i]);
        int rc = v == NULL ? -1 : PyList_Append(lists[i], v);
        Py_XDECREF(v);
        if (rc < 0)
            return -1;
    }
    return 0;
}

PyDoc_STRVAR(integrate_kernel_doc,
"integrate_kernel($module, a, b, c, h_par, delta, eta, m, x0, y0, t0, t_end, rtol, atol,\n"
"                 max_steps, /)\n"
"--\n"
"\n"
"Adaptive Dormand-Prince 5(4) with PI step control.\n"
"\n"
"A coordinate that starts exactly at 0 is held at 0 (the axes are\n"
"invariant sets).  Integration direction follows sign(t_end - t0).\n"
"\n"
"Returns (ts, xs, ys, dxs, dys, status) as plain lists.");

static PyObject *
integrate_kernel(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double v[13];
    int overflow;
    if (nargs != 14) {
        PyErr_Format(PyExc_TypeError,
                     "integrate_kernel() takes exactly 14 arguments (%zd given)", nargs);
        return NULL;
    }
    for (int i = 0; i < 13; i++) {
        v[i] = PyFloat_AsDouble(args[i]);
        if (v[i] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    long long max_steps = PyLong_AsLongLongAndOverflow(args[13], &overflow);
    if (max_steps == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)  /* past the range of the step counter: the same as its bound */
        max_steps = overflow > 0 ? LLONG_MAX : LLONG_MIN;

    const double x0 = v[7], y0 = v[8], t0 = v[9], t_end = v[10], rtol = v[11], atol = v[12];
    const Field f = {v[0], v[1], v[2], v[3], v[4], v[5], v[6], x0 == 0.0, y0 == 0.0};
    const double direction = t_end >= t0 ? 1.0 : -1.0;
    const double span = fabs(t_end - t0);
    const double escape2 = ESCAPE_RADIUS * ESCAPE_RADIUS;

    double t = t0, x = x0, y = y0, fx, fy;
    field(&f, x, y, &fx, &fy);
    PyObject *lists[5] = {NULL, NULL, NULL, NULL, NULL};
    for (int i = 0; i < 5; i++)
        if ((lists[i] = PyList_New(0)) == NULL)
            goto fail;
    if (push(lists, t, x, y, fx, fy) < 0)
        goto fail;

    const double first = span > 0 ? span : 1e-3;
    double hstep = direction * (first < 1e-3 ? first : 1e-3);  /* min(1e-3, first) */
    const double hmin = 1e-14 * (span > 1.0 ? span : 1.0);     /* max(1.0, span) */
    /* err_prev ** 0.08, with err_prev = 1.0 before the first accepted step */
    double err_prev_pow = 1.0;
    int status = 0;
    long long steps = 0;

    double k1x, k1y, k2x, k2y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y;
    double h21, x2, y2, x3, y3, x4, y4, x5, y5, x6, y6, xn, yn;
    double ex, ey, ax, axn, ay, ayn, scx, scy, rx, ry, err, fac;

    while ((t - t_end) * direction < 0.0 && steps < max_steps) {
        steps += 1;
        if (hstep * direction > (t_end - t) * direction)
            hstep = t_end - t;

        k1x = fx;
        k1y = fy;
        h21 = hstep * A21;
        x2 = x + h21 * k1x;
        y2 = y + h21 * k1y;
        field(&f, x2, y2, &k2x, &k2y);
        x3 = x + hstep * (A31 * k1x + A32 * k2x);
        y3 = y + hstep * (A31 * k1y + A32 * k2y);
        field(&f, x3, y3, &k3x, &k3y);
        x4 = x + hstep * (A41 * k1x + A42 * k2x + A43 * k3x);
        y4 = y + hstep * (A41 * k1y + A42 * k2y + A43 * k3y);
        field(&f, x4, y4, &k4x, &k4y);
        x5 = x + hstep * (A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x);
        y5 = y + hstep * (A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y);
        field(&f, x5, y5, &k5x, &k5y);
        x6 = x + hstep * (A61 * k1x + A62 * k2x + A63 * k3x + A64 * k4x + A65 * k5x);
        y6 = y + hstep * (A61 * k1y + A62 * k2y + A63 * k3y + A64 * k4y + A65 * k5y);
        field(&f, x6, y6, &k6x, &k6y);
        xn = x + hstep * (B1 * k1x + B3 * k3x + B4 * k4x + B5 * k5x + B6 * k6x);
        yn = y + hstep * (B1 * k1y + B3 * k3y + B4 * k4y + B5 * k5y + B6 * k6y);
        field(&f, xn, yn, &k7x, &k7y);

        ex = hstep * (E1 * k1x + E3 * k3x + E4 * k4x + E5 * k5x + E6 * k6x + E7 * k7x);
        ey = hstep * (E1 * k1y + E3 * k3y + E4 * k4y + E5 * k5y + E6 * k6y + E7 * k7y);
        ax = x < 0.0 ? -x : x;
        axn = xn < 0.0 ? -xn : xn;
        ay = y < 0.0 ? -y : y;
        ayn = yn < 0.0 ? -yn : yn;
        scx = atol + rtol * (axn > ax ? axn : ax);
        scy = atol + rtol * (ayn > ay ? ayn : ay);
        rx = ex / scx;
        ry = ey / scy;
        err = sqrt(0.5 * (rx * rx + ry * ry));

        if (err <= 1.0 || hstep * direction <= hmin) {
            t = t + hstep;
            x = xn;
            y = yn;
            if (f.x_axis)
                x = 0.0;
            if (f.y_axis)
                y = 0.0;
            fx = k7x;
            fy = k7y;
            if (push(lists, t, x, y, fx, fy) < 0)
                goto fail;
            if (!(x * x + y * y <= escape2)) {  /* NaN escapes too */
                status = 2;
                break;
            }
            err_prev_pow = pow(1e-10 > err ? 1e-10 : err, 0.08);
        }

        /* PI controller */
        if (err == 0.0) {
            fac = 5.0;
        }
        else {
            fac = 0.9 * pow(err, -0.14) * err_prev_pow;
            fac = fac > 0.2 ? fac : 0.2;
            fac = fac < 5.0 ? fac : 5.0;
        }
        hstep = hstep * fac;
        if (hstep * direction < hmin) {
            if (err > 1.0) {
                status = 1;
                break;
            }
            hstep = copysign(hmin, direction);
        }
    }

    if (status == 0 && (t - t_end) * direction < 0.0)
        status = 1;  /* ran out of steps */
    return Py_BuildValue("(NNNNNi)", lists[0], lists[1], lists[2], lists[3], lists[4], status);

fail:
    for (int i = 0; i < 5; i++)
        Py_XDECREF(lists[i]);
    return NULL;
}

static PyMethodDef methods[] = {
    {"integrate_kernel", (PyCFunction)(void (*)(void))integrate_kernel, METH_FASTCALL,
     integrate_kernel_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "predbif._rk_cy",
    .m_doc = "Compiled adaptive Dormand-Prince 5(4) kernel, the twin of predbif._rk_py.\n\n"
             "Status codes: 0 = reached t_end, 1 = minimum step reached or max_steps\n"
             "step attempts used up before t_end, 2 = escaped or not finite.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC
PyInit__rk_cy(void)
{
    return PyModule_Create(&module);
}
